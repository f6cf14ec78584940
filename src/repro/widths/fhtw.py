"""Fractional hypertree width (Definition A.15), computed exactly.

Uses the classic subset dynamic program over elimination orders
(Bodlaender-style): for the set ``S`` of not-yet-eliminated vertices,
eliminating ``v`` creates the bag ``{v} ∪ Q(S, v)``, where ``Q(S, v)``
is the set of vertices of ``S`` reachable from ``v`` through already
eliminated vertices.  The bag cost is the fractional edge cover number
``rho*``; memoisation makes the DP ``O(2^n · poly)``.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from ..hypergraph.hypergraph import Hypergraph
from .edge_cover import EdgeCoverCache
from .tree_decomposition import (
    TreeDecomposition,
    _EliminationSpace,
    td_from_elimination_order,
)

Vertex = Hashable


class _FhtwSolver(_EliminationSpace):
    def __init__(self, h: Hypergraph):
        super().__init__(h)
        self.rho_cache = EdgeCoverCache(h.edges)
        self.memo: dict[int, float] = {}
        self.choice: dict[int, int] = {}

    def solve(self, remaining: int) -> float:
        if remaining == 0:
            return 0.0
        if remaining in self.memo:
            return self.memo[remaining]
        best = float("inf")
        best_v = -1
        for v in range(self.n):
            if not remaining & (1 << v):
                continue
            bag = self.bag_of(self.bag_mask(remaining, v))
            cost = self.rho_cache.rho(bag)
            if cost >= best:
                continue
            value = max(cost, self.solve(remaining & ~(1 << v)))
            if value < best:
                best = value
                best_v = v
        self.memo[remaining] = best
        self.choice[remaining] = best_v
        return best

    def optimal_order(self) -> list[Vertex]:
        order: list[Vertex] = []
        remaining = self.full
        self.solve(remaining)
        while remaining:
            v = self.choice[remaining]
            order.append(self.vertices[v])
            remaining &= ~(1 << v)
            if remaining:
                self.solve(remaining)
        return order


def fractional_hypertree_width(h: Hypergraph) -> float:
    """Exact ``fhtw(H)`` via the elimination-order subset DP."""
    solver = _FhtwSolver(h)
    return solver.solve(solver.full)


def fhtw_with_decomposition(
    h: Hypergraph,
) -> tuple[float, TreeDecomposition, Sequence[Vertex]]:
    """``fhtw(H)`` together with an optimal tree decomposition and the
    elimination order that produced it."""
    solver = _FhtwSolver(h)
    width = solver.solve(solver.full)
    order = solver.optimal_order()
    td = td_from_elimination_order(h, order)
    return width, td, order
