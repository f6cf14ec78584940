"""Submodular width (Definition A.16), computed exactly for small
hypergraphs.

``subw(H) = max_h min_T max_t h(bag_t)`` where ``h`` ranges over
edge-dominated polymatroids and ``T`` over tree decompositions.  Two
facts make the computation finite and exact:

* polymatroids on ``n`` elements are cut out by the *elemental* Shannon
  inequalities (monotonicity at the top, pairwise submodularity), so the
  adversary's ``h`` is a vector of ``2^n`` LP variables;
* for monotone ``h``, the inner minimum over all tree decompositions is
  attained on elimination-order decompositions with non-dominated bag
  sets, a finite list (see ``tree_decomposition``).

The max-min-max is then one mixed-integer LP: a binary per (bag set,
bag) selects which bag must reach the objective ``z``; big-M slack frees
the unselected bags.  HiGHS (via scipy) solves it exactly for the
hypergraphs in the paper (up to 8 vertices after singleton dropping).
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..hypergraph.acyclicity import is_alpha_acyclic
from ..hypergraph.hypergraph import Hypergraph
from .fhtw import fractional_hypertree_width
from .tree_decomposition import _EliminationSpace, candidate_bagsets

Vertex = Hashable


def polymatroid_constraints(n: int) -> list[tuple[dict[int, float], float]]:
    """Elemental Shannon inequalities over ``2^n`` set-function values.

    Each constraint is returned as ``(coeffs, ub)`` meaning
    ``sum coeffs[mask] * h[mask] <= ub``:

    * ``h(V \\ {i}) - h(V) <= 0`` for every ``i`` (monotonicity);
    * ``h(S+i) + h(S+j) >= h(S+i+j) + h(S)`` for all ``S``, ``i < j``
      not in ``S`` (submodularity).
    """
    full = (1 << n) - 1
    rows: list[tuple[dict[int, float], float]] = []
    for i in range(n):
        rows.append(({full & ~(1 << i): 1.0, full: -1.0}, 0.0))
    for i in range(n):
        for j in range(i + 1, n):
            ij = (1 << i) | (1 << j)
            rest = full & ~ij
            s = rest
            while True:
                rows.append((
                    {
                        s | ij: 1.0,
                        s: 1.0,
                        s | (1 << i): -1.0,
                        s | (1 << j): -1.0,
                    },
                    0.0,
                ))
                if s == 0:
                    break
                s = (s - 1) & rest
    return rows


def _subw_program(
    h: Hypergraph,
    bagsets: Sequence[frozenset[frozenset[Vertex]]] | None = None,
    max_vertices: int = 9,
) -> tuple[float, np.ndarray]:
    """Solve the MILP of the module docstring once: ``subw(H)`` and the
    adversary's polymatroid, a vector over vertex masks (bit ``i`` is
    ``h.vertices[i]``).

    An α-acyclic ``h`` has subw 1 and builds no MILP: its adversary is
    ``h(S) = [v ∈ S]`` for the first vertex ``v``, a matroid rank that is
    at most 1 on every edge and 1 on the bag holding ``v`` in every
    decomposition.
    """
    n = h.num_vertices
    if n == 0:
        return 0.0, np.zeros(1)
    if is_alpha_acyclic(h):
        return 1.0, (np.arange(1 << n) & 1).astype(float)
    if n > max_vertices:
        raise ValueError(
            f"exact subw limited to {max_vertices} vertices; got {n}"
        )
    space = _EliminationSpace(h)
    if bagsets is None:
        bagsets = candidate_bagsets(h)
    td_bags: list[list[int]] = [
        sorted(map(space.mask_of, bagset)) for bagset in bagsets
    ]

    num_h = 1 << n
    z_col = num_h
    y_cols: dict[tuple[int, int], int] = {}
    col = num_h + 1
    for t, bags in enumerate(td_bags):
        for b in range(len(bags)):
            y_cols[(t, b)] = col
            col += 1
    num_cols = col

    rows_ub: list[dict[int, float]] = []
    ub_vals: list[float] = []
    for coeffs, ub in polymatroid_constraints(n):
        rows_ub.append(coeffs)
        ub_vals.append(ub)
    for e in h.edges.values():
        rows_ub.append({space.mask_of(e): 1.0})
        ub_vals.append(1.0)
    big_m = float(h.num_edges + 1)
    for t, bags in enumerate(td_bags):
        for b, bag_mask in enumerate(bags):
            # z - h(bag) + M*y <= M   (active when y = 1)
            rows_ub.append({
                z_col: 1.0,
                bag_mask: -1.0,
                y_cols[(t, b)]: big_m,
            })
            ub_vals.append(big_m)
    rows_eq = [
        {y_cols[(t, b)]: 1.0 for b in range(len(bags))}
        for t, bags in enumerate(td_bags)
    ]

    c = np.zeros(num_cols)
    c[z_col] = -1.0
    integrality = np.zeros(num_cols)
    lower = np.zeros(num_cols)
    upper = np.full(num_cols, np.inf)
    upper[0] = 0.0  # h(emptyset) = 0
    for key in y_cols.values():
        integrality[key] = 1
        upper[key] = 1.0
    upper[z_col] = big_m

    ones = np.ones(len(rows_eq))
    result = milp(
        c=c,
        constraints=[
            LinearConstraint(
                _to_sparse(rows_ub, num_cols), -np.inf, np.asarray(ub_vals)
            ),
            LinearConstraint(_to_sparse(rows_eq, num_cols), ones, ones),
        ],
        integrality=integrality,
        bounds=Bounds(lower, upper),
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"subw MILP failed: {result.message}")
    return float(-result.fun), result.x[:num_h]


def submodular_width(
    h: Hypergraph,
    bagsets: Sequence[frozenset[frozenset[Vertex]]] | None = None,
    max_vertices: int = 9,
) -> float:
    """Exact ``subw(H)`` via the MILP described in the module docstring.

    ``bagsets`` may be supplied to reuse a precomputed decomposition
    list; otherwise all elimination-order bag sets are enumerated and
    pruned to the non-dominated ones.
    """
    return _subw_program(h, bagsets, max_vertices)[0]


def submodular_width_checked(h: Hypergraph) -> float:
    """``subw(H)`` plus the sanity check ``subw <= fhtw`` (Appendix A.2)."""
    value = submodular_width(h)
    fhtw = fractional_hypertree_width(h)
    if value > fhtw + 1e-6:  # pragma: no cover - defensive
        raise AssertionError(
            f"subw {value} exceeded fhtw {fhtw}: solver inconsistency"
        )
    return value


def modular_width_lower_bound(h: Hypergraph) -> float:
    """A cheap lower bound on ``subw`` from uniform modular polymatroids:
    ``h(S) = |S| / max_e |e ∩ support|`` maximised over flat weightings.

    Uses ``h(S) = sum_{v in S} w_v`` with uniform ``w`` scaled so every
    edge is dominated; the bound is then the minimum over non-dominated
    elimination bag sets of the largest bag weight.
    """
    if h.num_vertices == 0:
        return 0.0
    max_edge = max((len(e) for e in h.edges.values()), default=1)
    weight = 1.0 / max_edge
    best = float("inf")
    for bagset in candidate_bagsets(h):
        largest = max(len(bag) * weight for bag in bagset)
        best = min(best, largest)
    return best


def _to_sparse(rows: list[dict[int, float]], num_cols: int):
    data: list[float] = []
    row_idx: list[int] = []
    col_idx: list[int] = []
    for i, row in enumerate(rows):
        for j, val in row.items():
            row_idx.append(i)
            col_idx.append(j)
            data.append(val)
    return sparse.csr_matrix(
        (data, (row_idx, col_idx)), shape=(max(len(rows), 1), num_cols)
    )
