"""Tree decompositions (Definition A.12) and elimination orders.

Every tree decomposition can be refined into one that arises from a
vertex elimination order of the primal graph, with every bag a subset of
some original bag.  Since the bag-cost functions used here (``rho*`` and
monotone polymatroids) are monotone under set inclusion, both ``fhtw``
and the inner minimisation of ``subw`` may restrict attention to
elimination-order decompositions — which is what this module enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Hashable, Iterable, Sequence

import networkx as nx

from ..hypergraph.hypergraph import Hypergraph

Vertex = Hashable
Bag = frozenset


@dataclass
class TreeDecomposition:
    """A tree decomposition: bags plus tree edges (indices into bags)."""

    bags: list[frozenset[Vertex]]
    tree_edges: list[tuple[int, int]]

    def as_graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(len(self.bags)))
        g.add_edges_from(self.tree_edges)
        return g

    def validate(self, h: Hypergraph) -> None:
        """Raise ``ValueError`` if this is not a valid tree decomposition
        of ``h`` (edge cover + connectivity, Definition A.12)."""
        g = self.as_graph()
        if len(self.bags) > 1 and (
            not nx.is_connected(g) or not nx.is_tree(g)
        ):
            raise ValueError("decomposition graph is not a tree")
        for label, e in h.edges.items():
            if not any(e <= bag for bag in self.bags):
                raise ValueError(f"hyperedge {label} not covered by any bag")
        for v in h.vertices:
            touching = [i for i, bag in enumerate(self.bags) if v in bag]
            if not touching:
                raise ValueError(f"vertex {v} in no bag")
            sub = g.subgraph(touching)
            if not nx.is_connected(sub):
                raise ValueError(f"bags containing {v} are not connected")

    def bagset(self) -> frozenset[Bag]:
        return frozenset(self.bags)


def elimination_bags(
    h: Hypergraph, order: Sequence[Vertex]
) -> list[tuple[Vertex, frozenset[Vertex]]]:
    """The bag created when each vertex is eliminated, in order.

    Eliminating ``v`` creates the bag ``{v} ∪ N(v)`` in the current fill
    graph, then connects all of ``v``'s neighbours into a clique.
    """
    g = h.primal_graph()
    out: list[tuple[Vertex, frozenset[Vertex]]] = []
    for v in order:
        neighbours = set(g.neighbors(v))
        out.append((v, frozenset(neighbours | {v})))
        for u in neighbours:
            for w in neighbours:
                if u != w:
                    g.add_edge(u, w)
        g.remove_node(v)
    return out


def td_from_elimination_order(
    h: Hypergraph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Build a valid tree decomposition from an elimination order.

    Bag ``B_i`` connects to the bag of the earliest-eliminated vertex in
    ``B_i \\ {v_i}``; non-maximal bags are then merged into a neighbour
    that contains them.
    """
    bags_with_vertex = elimination_bags(h, order)
    position = {v: i for i, (v, _) in enumerate(bags_with_vertex)}
    bags = [bag for _, bag in bags_with_vertex]
    edges: list[tuple[int, int]] = []
    for i, (v, bag) in enumerate(bags_with_vertex):
        rest = bag - {v}
        if rest:
            parent = min(position[u] for u in rest)
            edges.append((i, parent))
    td = TreeDecomposition(bags, edges)
    return _merge_redundant_bags(td)


def _merge_redundant_bags(td: TreeDecomposition) -> TreeDecomposition:
    g = td.as_graph()
    bags = list(td.bags)
    alive = set(range(len(bags)))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            for j in list(g.neighbors(i)):
                if bags[i] <= bags[j]:
                    for k in list(g.neighbors(i)):
                        if k != j:
                            g.add_edge(k, j)
                    g.remove_node(i)
                    alive.discard(i)
                    changed = True
                    break
            if changed:
                break
    index = {old: new for new, old in enumerate(sorted(alive))}
    return TreeDecomposition(
        [bags[old] for old in sorted(alive)],
        [(index[a], index[b]) for a, b in g.edges],
    )


def all_elimination_bagsets(
    h: Hypergraph, max_vertices: int = 9
) -> list[frozenset[Bag]]:
    """Distinct bag sets over *all* elimination orders (maximal bags only).

    Exhaustive over ``|V|!`` orders; guarded to query-sized hypergraphs.
    Used by tests as the reference enumeration; the width solvers use
    the pruned :func:`candidate_bagsets` DP instead.
    """
    n = h.num_vertices
    if n > max_vertices:
        raise ValueError(
            f"exhaustive elimination enumeration limited to {max_vertices} "
            f"vertices; hypergraph has {n}"
        )
    seen: set[frozenset[Bag]] = set()
    for order in permutations(h.vertices):
        bags = [bag for _, bag in elimination_bags(h, order)]
        maximal = [
            b for b in bags if not any(b < other for other in bags)
        ]
        seen.add(frozenset(maximal))
    return sorted(seen, key=lambda s: (len(s), sorted(map(_bag_key, s))))


class _EliminationSpace:
    """The vertices of ``h`` as bits and its primal graph as masks: what
    the elimination-order DPs over remaining-vertex sets share."""

    def __init__(self, h: Hypergraph):
        self.vertices: list[Vertex] = list(h.vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.n = len(self.vertices)
        self.full = (1 << self.n) - 1
        primal = h.primal_graph()
        self.adjacency = [
            self.mask_of(primal.neighbors(v)) for v in self.vertices
        ]

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << self.index[v]
        return mask

    def bag_of(self, mask: int) -> frozenset[Vertex]:
        return frozenset(
            v for i, v in enumerate(self.vertices) if mask & (1 << i)
        )

    def bag_mask(self, remaining: int, v: int) -> int:
        """``{v} ∪ Q(S, v)``: the vertices of ``remaining`` adjacent to
        ``v`` directly or through eliminated (non-remaining) vertices —
        the bag eliminating ``v`` from ``remaining`` creates."""
        eliminated = self.full & ~remaining
        seen = 1 << v
        frontier = self.adjacency[v]
        bag = 1 << v
        while frontier:
            w = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            bit = 1 << w
            if seen & bit:
                continue
            seen |= bit
            if remaining & bit:
                bag |= bit
            elif eliminated & bit:
                frontier |= self.adjacency[w] & ~seen
        return bag


def candidate_bagsets(
    h: Hypergraph, max_vertices: int = 16
) -> list[frozenset[Bag]]:
    """Non-dominated elimination-order bag sets via a subset DP.

    Equivalent to ``non_dominated_bagsets(all_elimination_bagsets(h))``
    but exponentially faster: memoised over the set of remaining
    vertices (the bag created when eliminating ``v`` from remaining set
    ``S`` depends only on ``(S, v)``), with domination pruning at every
    level (safe: if partial bag set ``P1`` dominates ``P2``, then
    ``P1 ∪ F`` dominates ``P2 ∪ F`` for every completion ``F``, and
    dominated bag sets never attain the inner minimum of a monotone
    cost).
    """
    n = h.num_vertices
    if n == 0:
        return [frozenset()]
    if n > max_vertices:
        raise ValueError(
            f"candidate_bagsets limited to {max_vertices} vertices; got {n}"
        )
    space = _EliminationSpace(h)

    def prune(bagsets: set[frozenset[int]]) -> set[frozenset[int]]:
        ordered = sorted(bagsets, key=lambda s: (len(s), sorted(s)))
        kept: list[frozenset[int]] = []
        for t in ordered:
            if any(
                all(any(b1 & ~b2 == 0 for b2 in t) for b1 in other)
                for other in kept
            ):
                continue
            kept.append(t)
        return set(kept)

    memo: dict[int, set[frozenset[int]]] = {0: {frozenset()}}

    def solve(remaining: int) -> set[frozenset[int]]:
        cached = memo.get(remaining)
        if cached is not None:
            return cached
        results: set[frozenset[int]] = set()
        r = remaining
        while r:
            v = (r & -r).bit_length() - 1
            r &= r - 1
            bag = space.bag_mask(remaining, v)
            for rest in solve(remaining & ~(1 << v)):
                merged = {b for b in rest if b & ~bag != 0 or b == bag}
                if not any(bag & ~b == 0 for b in merged):
                    merged.add(bag)
                results.add(frozenset(merged))
        results = prune(results)
        memo[remaining] = results
        return results

    final = solve(space.full)
    return [
        frozenset(map(space.bag_of, bagset))
        for bagset in sorted(final, key=lambda s: (len(s), sorted(s)))
    ]


def non_dominated_bagsets(
    bagsets: Iterable[frozenset[Bag]],
) -> list[frozenset[Bag]]:
    """Prune bag sets dominated by another.

    ``T1`` dominates ``T2`` when every bag of ``T1`` is contained in some
    bag of ``T2``: then for every monotone cost, ``T1``'s max-bag cost is
    no larger, so ``T2`` never attains the inner minimum of ``subw``.
    """
    candidates = list(dict.fromkeys(bagsets))

    def dominates(t1: frozenset[Bag], t2: frozenset[Bag]) -> bool:
        return all(any(b1 <= b2 for b2 in t2) for b1 in t1)

    kept: list[frozenset[Bag]] = []
    for t in candidates:
        if any(dominates(other, t) and other != t for other in candidates):
            # keep t only if no distinct dominator survives; handle mutual
            # domination (equivalent bagsets) by preferring the first seen
            dominators = [
                other for other in candidates
                if other != t and dominates(other, t)
            ]
            if any(not dominates(t, other) for other in dominators):
                continue
            if any(
                candidates.index(other) < candidates.index(t)
                for other in dominators
            ):
                continue
        kept.append(t)
    return kept


def _bag_key(bag: Bag) -> tuple:
    return tuple(sorted(map(str, bag)))
