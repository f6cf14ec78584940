"""Hypergraph-level forward reduction: the transformation ``τ``.

Definition 4.5 (one-step hypergraph transformation): resolving an
interval vertex ``[X]`` occurring in ``k`` hyperedges creates, for every
permutation ``σ`` of those hyperedges, a hypergraph where the edge at
position ``i`` replaces ``[X]`` by the fresh point vertices
``X1, ..., Xi``.

The full map ``τ(H)`` (Section 4.3) resolves every interval vertex in
turn; it is purely structural (no data), and is what the ij-width
(Definition 4.14) and ι-acyclicity (Definition 6.1) quantify over.
"""

from __future__ import annotations

from itertools import permutations
from typing import Hashable, Iterable, Mapping, Sequence

from .hypergraph import Hypergraph

Vertex = Hashable

# Encoding of one EJ hypergraph in tau(H): for each interval vertex X and
# each edge label containing X, the number of X-parts the edge receives
# (its 1-based position in the permutation of E_[X]).
PositionMap = dict[str, dict[str, int]]  # variable -> edge label -> i


def part_vertex(variable: str, index: int) -> str:
    """Name of the ``index``-th fresh point vertex for ``variable``
    (``A`` -> ``A1``, ``A2``, ...)."""
    return f"{variable}{index}"


def transform_edges(
    edges: Mapping[str, frozenset[Vertex]],
    variable: str,
    positions: Mapping[str, int],
) -> dict[str, frozenset[Vertex]]:
    """Apply the one-step transformation for ``variable`` given each
    containing edge's permutation position (Definition 4.5)."""
    out: dict[str, frozenset[Vertex]] = {}
    for label, e in edges.items():
        if label in positions:
            i = positions[label]
            fresh = {part_vertex(variable, j) for j in range(1, i + 1)}
            out[label] = (e - {variable}) | fresh
        else:
            out[label] = e
    return out


def one_step_hypergraphs(
    h: Hypergraph, variable: str
) -> list[tuple[Hypergraph, dict[str, int]]]:
    """All hypergraphs from resolving ``variable`` (the set ``H̃_[X]``),
    each paired with its edge-position map."""
    containing = list(h.edges_containing(variable))
    # ``h``'s vertex order, the parts taking ``variable``'s place: the
    # edges are frozensets, and their order would follow str hashing
    parts = [part_vertex(variable, j) for j in range(1, len(containing) + 1)]
    order = [w for v in h.vertices for w in (parts if v == variable else [v])]
    results: list[tuple[Hypergraph, dict[str, int]]] = []
    for sigma in permutations(containing):
        positions = {label: i + 1 for i, label in enumerate(sigma)}
        edges = transform_edges(h.edges, variable, positions)
        results.append((Hypergraph(edges, order), positions))
    return results


def tau(
    h: Hypergraph,
    interval_vertices: Iterable[str] | None = None,
) -> list[Hypergraph]:
    """The full transformation ``τ(H)``: all EJ hypergraphs obtained by
    resolving every interval vertex (Algorithm 1, hypergraph part).

    ``interval_vertices`` defaults to all vertices (a pure IJ query).
    The size of the result is ``∏_[X] k_[X]!``.
    """
    return [h for h, _ in tau_with_positions(h, interval_vertices)]


def tau_with_positions(
    h: Hypergraph,
    interval_vertices: Iterable[str] | None = None,
) -> list[tuple[Hypergraph, PositionMap]]:
    """``τ(H)`` with, for each output hypergraph, the per-variable
    edge-position maps that generated it.  The position maps are exactly
    what the database transformation (Definition 4.9) needs."""
    if interval_vertices is None:
        variables: Sequence[str] = [str(v) for v in h.vertices]
    else:
        variables = list(interval_vertices)
    current: list[tuple[Hypergraph, PositionMap]] = [(h, {})]
    for x in variables:
        nxt: list[tuple[Hypergraph, PositionMap]] = []
        for graph, posmap in current:
            for new_graph, positions in one_step_hypergraphs(graph, x):
                extended = dict(posmap)
                extended[x] = positions
                nxt.append((new_graph, extended))
        current = nxt
    return current


def reduced_structure_classes(
    hypergraphs: Iterable[Hypergraph],
) -> dict[frozenset, Hypergraph]:
    """Drop singleton vertices and collapse hypergraphs that become
    identical (labelled-edge equality), as in Appendix E.4/F.

    Returns a map from structure key to one representative.
    """
    out: dict[frozenset, Hypergraph] = {}
    for h in hypergraphs:
        reduced = h.drop_singleton_vertices()
        out.setdefault(reduced.structure_key(), reduced)
    return out


def is_iota_acyclic_definition(
    h: Hypergraph, interval_vertices: Iterable[str] | None = None
) -> bool:
    """ι-acyclicity straight from Definition 6.1: every hypergraph in
    ``τ(H)`` is α-acyclic.  Exponential in query size; used to validate
    the syntactic characterisation (Theorem 6.3)."""
    from .acyclicity import is_alpha_acyclic

    return all(is_alpha_acyclic(g) for g in tau(h, interval_vertices))
