"""Multi-hypergraphs with labelled hyperedges (Definition A.1).

Hyperedges carry labels so that several edges over the same vertex set
can coexist (e.g. the query ``R([A],[B],[C]) ∧ S([A],[B],[C])`` has two
distinct hyperedges with equal vertex sets).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx

Vertex = Hashable


class Hypergraph:
    """A multi-hypergraph ``H = (V, E)`` with labelled hyperedges."""

    def __init__(
        self,
        edges: Mapping[str, Iterable[Vertex]],
        vertices: Iterable[Vertex] | None = None,
    ):
        self._edges: dict[str, frozenset[Vertex]] = {
            label: frozenset(vs) for label, vs in edges.items()
        }
        ordered: dict[Vertex, None] = {}
        if vertices is not None:
            for v in vertices:
                ordered[v] = None
        for label, vs in edges.items():
            for v in vs:
                ordered[v] = None
        self._vertices: tuple[Vertex, ...] = tuple(ordered)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def edges(self) -> dict[str, frozenset[Vertex]]:
        return dict(self._edges)

    @property
    def edge_labels(self) -> tuple[str, ...]:
        return tuple(self._edges)

    def edge(self, label: str) -> frozenset[Vertex]:
        return self._edges[label]

    def edges_containing(self, v: Vertex) -> tuple[str, ...]:
        """Labels of the hyperedges containing ``v`` (the set ``E_v``)."""
        return tuple(label for label, e in self._edges.items() if v in e)

    def degree(self, v: Vertex) -> int:
        """Number of hyperedges containing ``v``."""
        return sum(1 for e in self._edges.values() if v in e)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._edges == other._edges and set(self._vertices) == set(
            other._vertices
        )

    def __hash__(self) -> int:
        return hash(
            (frozenset(self._edges.items()), frozenset(self._vertices))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{label}{{{', '.join(map(str, sorted(map(str, e))))}}}"
            for label, e in self._edges.items()
        )
        return f"Hypergraph({parts})"

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------

    def primal_graph(self) -> nx.Graph:
        """The primal (Gaifman) graph: vertices of ``H``, an edge between
        every pair of vertices that co-occur in a hyperedge."""
        g = nx.Graph()
        g.add_nodes_from(self._vertices)
        for e in self._edges.values():
            members = sorted(e, key=str)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    g.add_edge(u, v)
        return g

    def incidence_graph(self) -> nx.Graph:
        """The bipartite incidence graph: one node per vertex, one node
        per hyperedge label, edges for membership (Appendix A.1.1)."""
        g = nx.Graph()
        for v in self._vertices:
            g.add_node(("v", v), part="vertex")
        for label, e in self._edges.items():
            g.add_node(("e", label), part="edge")
            for v in e:
                g.add_edge(("e", label), ("v", v))
        return g

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def induced_edge_sets(self, subset: Iterable[Vertex]) -> list[frozenset[Vertex]]:
        """The induced set ``E[S] = {e ∩ S | e ∈ E} \\ {∅}``
        (Definition A.5).  Returned as a *set* of distinct vertex sets."""
        s = frozenset(subset)
        out = {e & s for e in self._edges.values()}
        out.discard(frozenset())
        return sorted(out, key=lambda f: (len(f), sorted(map(str, f))))

    def drop_singleton_vertices(self) -> "Hypergraph":
        """Remove vertices occurring in exactly one hyperedge.

        The paper drops such *singleton variables* before width analysis:
        they change neither the fractional hypertree nor the submodular
        width [4, 5].  Edges that become empty are removed.
        """
        keep = {v for v in self._vertices if self.degree(v) >= 2}
        new_edges = {
            label: e & keep
            for label, e in self._edges.items()
        }
        new_edges = {label: e for label, e in new_edges.items() if e}
        return Hypergraph(new_edges, vertices=[v for v in self._vertices if v in keep])

    def restrict(self, subset: Iterable[Vertex]) -> "Hypergraph":
        """Sub-hypergraph induced on the given vertex subset (edges are
        intersected with the subset; empty edges dropped)."""
        s = frozenset(subset)
        new_edges = {label: e & s for label, e in self._edges.items()}
        new_edges = {label: e for label, e in new_edges.items() if e}
        return Hypergraph(new_edges, vertices=[v for v in self._vertices if v in s])

    def structure_key(self) -> frozenset[tuple[str, frozenset[Vertex]]]:
        """A hashable key identifying the labelled edge structure; used to
        collapse EJ queries that become identical after singleton
        dropping (Appendix E.4/F)."""
        return frozenset(self._edges.items())


def minimisation(sets: Iterable[frozenset[Vertex]]) -> list[frozenset[Vertex]]:
    """``M(E)``: the inclusion-maximal members of a family of sets
    (Definition A.6)."""
    family = list(set(sets))
    return [
        e for e in family
        if not any(e < f for f in family)
    ]
