"""Canonical labelling: the one answer to "are these the same shape?".

A structure is its bipartite incidence graph: a plain hypergraph is
uncoloured; a query colours atoms by relation symbol (Carmeli–Segoufin),
incidences by argument position and variables by point/interval kind.
Each connected component is ordered by colour refinement, then by
individualisation over the cells left tied, keeping the least
certificate and skipping subtrees an automorphism found so far maps onto
explored ones; components are then sorted.  Keys are equal exactly for
isomorphic structures and hold colours and positions only, so every
process computes the same key.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Mapping, NamedTuple, Sequence

from .hypergraph import Hypergraph

#: Bound of the per-process LRU memos keyed by shape (forms, plans, widths).
SHAPE_MEMO_SIZE = 4096


class Labelling(NamedTuple):
    """The key, then the input's edge indices and vertices in canonical order."""

    key: tuple
    edges: tuple[int, ...]
    vertices: tuple[Hashable, ...]


def canonical_labelling(
    edges: Sequence[Sequence[Hashable]],
    edge_colours: Sequence | None = None,
    vertex_colours: Mapping | None = None,
    vertices: Sequence[Hashable] = (),
    positional: bool = False,
) -> Labelling:
    """Label ``edges`` plus the isolated ``vertices``; ``positional``
    labels each incidence by its position in the edge."""
    m = len(edges)
    names = list({v: None for v in vertices} | {v: None for e in edges for v in e})
    index = {v: m + j for j, v in enumerate(names)}
    colours = [(0, c) for c in edge_colours or [0] * m]
    colours += [(1, vertex_colours[v] if vertex_colours else 0) for v in names]
    adj: list[list[tuple[int, int]]] = [[] for _ in colours]
    for i, e in enumerate(edges):
        for p, v in enumerate(e):
            adj[i].append((p * positional, index[v]))
            adj[index[v]].append((p * positional, i))
    components, seen = [], set()
    for start in range(len(adj)):
        if start in seen:
            continue
        nodes = [start]
        seen.add(start)
        for g in nodes:
            fresh = {u for _, u in adj[g]} - seen
            seen |= fresh
            nodes += fresh
        nodes.sort()
        local = {g: k for k, g in enumerate(nodes)}
        cert, order = _canonical(
            [colours[g] for g in nodes], [[(lab, local[u]) for lab, u in adj[g]] for g in nodes]
        )
        components.append((cert, [nodes[k] for k in order]))
    components.sort(key=lambda c: c[0])
    order = [g for _, nodes in components for g in nodes]
    return Labelling(
        tuple(cert for cert, _ in components),
        tuple(g for g in order if g < m),
        tuple(names[g - m] for g in order if g >= m),
    )


def hypergraph_labelling(h: Hypergraph) -> Labelling:
    """The uncoloured labelling of ``h``; ``edges`` index ``h.edge_labels``."""
    return canonical_labelling(list(h.edges.values()), vertices=h.vertices)


def are_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Whether a vertex bijection maps ``a``'s edge multiset onto ``b``'s."""
    return hypergraph_labelling(a).key == hypergraph_labelling(b).key


def isomorphism_classes(hypergraphs: Sequence[Hypergraph]) -> list[list[int]]:
    """The input's indices grouped by canonical key, in first-index order."""
    classes: dict[tuple, list[int]] = {}
    for i, h in enumerate(hypergraphs):
        classes.setdefault(hypergraph_labelling(h).key, []).append(i)
    return list(classes.values())


def _refine(cells: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
    """Split cells (ranks) by their multisets of (label, neighbour cell)
    until stable; each split stays in place, ordered by colours and labels."""
    count = len(set(cells))
    while count < len(cells):
        signatures = [
            (cells[v], tuple(sorted([(lab, cells[u]) for lab, u in near])))
            for v, near in enumerate(adj)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(signatures)))}
        if len(ranks) == count:
            break
        cells, count = [ranks[s] for s in signatures], len(ranks)
    return cells


def _canonical(colours: list, adj: list[list[tuple[int, int]]]) -> tuple[tuple, list[int]]:
    """One connected component's least certificate and its node order."""
    n = len(colours)
    best: list = [None, [], []]  # certificate, individualised nodes, cells
    automorphisms: list[list[int]] = []

    def search(cells: list[int], sequence: list[int]) -> int | None:
        """Explore below ``cells``; return the level an automorphism unwinds to."""
        target = min((c for c, k in Counter(cells).items() if k > 1), default=None)
        if target is None:
            order = sorted(range(n), key=cells.__getitem__)
            # edges rank first (their colours' part is 0): each edge's
            # colour and members' ranks by position, then vertex colours
            cert = tuple(
                (c, tuple(r for _, r in sorted((lab, cells[u]) for lab, u in adj[v])))
                for v in order
                for part, c in [colours[v]]
                if part == 0
            ), tuple(colours[v][1] for v in order if colours[v][0] == 1)
            if best[0] is None or cert < best[0]:
                best[:] = cert, sequence, cells
            elif cert == best[0]:
                # the map between the two leaves is an automorphism: it
                # sends the best leaf's subtree where their paths part
                # onto this one
                automorphisms.append([order[r] for r in best[2]])
                return next(i for i, (a, b) in enumerate(zip(sequence, best[1])) if a != b)
            return None
        explored: list[int] = []
        for v in [u for u in range(n) if cells[u] == target]:
            # skip v when an automorphism found so far that fixes
            # ``sequence`` maps an explored node onto it
            fixing = [g for g in automorphisms if all(g[u] == u for u in sequence)]
            orbit = list(explored)
            for u in orbit:
                orbit += [g[u] for g in fixing if g[u] not in orbit]
            if v in orbit:
                continue
            explored.append(v)
            # individualise v: the rest of its cell ranks right after it
            split = [c + (c > target or (c == target and u != v)) for u, c in enumerate(cells)]
            jump = search(_refine(split, adj), sequence + [v])
            if jump is not None and jump < len(sequence):
                return jump
        return None

    ranks = {c: r for r, c in enumerate(sorted(set(colours)))}
    search(_refine([ranks[c] for c in colours], adj), [])
    return best[0], sorted(range(n), key=best[2].__getitem__)
