"""Verifiable certificates for width results.

The width solvers are LP/MILP-based; these certificates let a reader
check the reported numbers *without trusting the solvers*:

* an **fhtw upper-bound certificate** is a tree decomposition plus one
  fractional edge cover per bag — verification is arithmetic;
* a **subw lower-bound certificate** is an edge-dominated polymatroid
  ``h`` such that every candidate tree decomposition has a bag with
  ``h(bag) ≥ value`` — verification checks the elemental Shannon
  inequalities, edge domination, and the bag condition per
  decomposition.

Together they bracket ``subw ≤ fhtw``; for every hypergraph in the
paper the two solvers report a matching pair (or the known strict gap,
e.g. Figure 10's class), so the certificates pin the values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..hypergraph.hypergraph import Hypergraph
from .edge_cover import fractional_edge_cover
from .fhtw import fhtw_with_decomposition
from .subw import _subw_program
from .tree_decomposition import (
    TreeDecomposition,
    _EliminationSpace,
    candidate_bagsets,
)

TOL = 1e-6


@dataclass
class FhtwCertificate:
    """Upper bound witness: ``fhtw(H) ≤ value``."""

    hypergraph: Hypergraph
    value: float
    decomposition: TreeDecomposition
    bag_covers: list[dict[str, float]]  # per bag: edge label -> weight

    def verify(self) -> bool:
        """Re-check everything with plain arithmetic (no LP)."""
        try:
            self.decomposition.validate(self.hypergraph)
        except ValueError:
            return False
        edges = self.hypergraph.edges
        for bag, cover in zip(self.decomposition.bags, self.bag_covers):
            total = sum(cover.values())
            if total > self.value + TOL:
                return False
            if any(w < -TOL for w in cover.values()):
                return False
            for v in bag:
                covered = sum(
                    w for label, w in cover.items() if v in edges[label]
                )
                if covered < 1 - TOL:
                    return False
        return True


@dataclass
class SubwLowerCertificate:
    """Lower bound witness: ``subw(H) ≥ value``."""

    hypergraph: Hypergraph
    value: float
    h_values: Mapping[frozenset, float]  # set of vertices -> h(S)

    def verify(self) -> bool:
        """Check: h is a polymatroid, edge-dominated, and every
        candidate decomposition has a bag with h(bag) ≥ value."""
        h = dict(self.h_values)
        vertices = list(self.hypergraph.vertices)

        def val(s: frozenset) -> float:
            return h.get(frozenset(s), 0.0)

        full = frozenset(vertices)
        if abs(val(frozenset())) > TOL:
            return False
        # monotonicity (elemental) and submodularity (elemental)
        for i in vertices:
            if val(full - {i}) > val(full) + TOL:
                return False
        for idx_i, i in enumerate(vertices):
            for j in vertices[idx_i + 1:]:
                rest = [v for v in vertices if v not in (i, j)]
                for mask in range(1 << len(rest)):
                    s = frozenset(
                        rest[b] for b in range(len(rest)) if mask & (1 << b)
                    )
                    lhs = val(s | {i}) + val(s | {j})
                    rhs = val(s | {i, j}) + val(s)
                    if lhs < rhs - TOL:
                        return False
        for e in self.hypergraph.edges.values():
            if val(e) > 1 + TOL:
                return False
        for bagset in candidate_bagsets(self.hypergraph):
            if not any(val(bag) >= self.value - TOL for bag in bagset):
                return False
        return True


def fhtw_certificate(h: Hypergraph) -> FhtwCertificate:
    """Produce a checkable fhtw upper-bound certificate."""
    value, td, _ = fhtw_with_decomposition(h)
    covers = []
    for bag in td.bags:
        _, weights = fractional_edge_cover(h.edges, bag)
        covers.append(weights)
    return FhtwCertificate(h, value, td, covers)


def subw_lower_certificate(h: Hypergraph) -> SubwLowerCertificate:
    """Produce a checkable subw lower-bound certificate: the adversarial
    polymatroid of the subw program's solution."""
    value, x = _subw_program(h)
    space = _EliminationSpace(h)
    return SubwLowerCertificate(
        h, value, {space.bag_of(mask): float(v) for mask, v in enumerate(x)}
    )
