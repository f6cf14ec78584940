"""Endpoint preprocessing utilities (Appendix G.1, Example 4.12).

Two transforms on endpoint ranks:

* rank-space normalisation — the intersection problem only depends on the
  relative order of endpoints, so endpoints can be replaced by their
  ranks (Example 4.12 assumes endpoints ``{0, 1, ..., k}``);
* the distinct-left-endpoint shift — Appendix G.1 perturbs the intervals
  of relation ``R_i`` by ``[x.l + i*eps, x.r + n*eps]`` so that intervals
  from different relations have pairwise distinct left endpoints while
  every intersection is preserved.  :func:`shift_row` does it exactly,
  on ranks, with ``eps = 1/(n+1)`` of a rank step; the Appendix G
  disjoint reduction (:func:`repro.reduction.disjoint.shift_distinct_left`)
  shifts its database rows with it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .interval import Interval


def collect_endpoints(intervals: Iterable[Interval]) -> list[float]:
    """All endpoint values (with duplicates) of the given intervals."""
    out: list[float] = []
    for x in intervals:
        out.append(x.left)
        out.append(x.right)
    return out


def rank_space(intervals: Sequence[Interval]) -> list[Interval]:
    """Replace endpoints by their ranks among the distinct endpoints.

    The result uses integer endpoints in ``{0, ..., m-1}`` and preserves
    all intersections (the predicate depends only on endpoint order).
    """
    distinct = sorted(set(collect_endpoints(intervals)))
    rank = {p: i for i, p in enumerate(distinct)}
    return [Interval(rank[x.left], rank[x.right]) for x in intervals]


def shift_row(
    row: tuple, positions: Sequence[int], slot: int, n: int, rank: Mapping
) -> tuple:
    """``row`` of the atom at 1-based position ``slot`` of ``n``, shifted:
    each interval column ``[l, r]`` in ``positions`` becomes
    ``[rank[l]*(n+1) + slot, rank[r]*(n+1) + n]``.  Ranks preserve
    endpoint order and ``slot <= n < n+1``, so ``x.l <= y.r`` holds
    before exactly when it holds after — every intersection is preserved
    — and left endpoints are ``slot`` modulo ``n+1``: distinct across
    atoms.  Integer ranks keep it exact at any magnitude (a float
    epsilon rounds away past ``2**52``); ``ranks[s // (n+1)]`` undoes it.
    """
    out = list(row)
    for idx in positions:
        x = row[idx]
        out[idx] = Interval(
            rank[x.left] * (n + 1) + slot, rank[x.right] * (n + 1) + n
        )
    return tuple(out)


def make_left_endpoints_distinct(
    relations: Sequence[Sequence[Interval]],
) -> list[list[Interval]]:
    """Apply the Appendix G.1 shift (:func:`shift_row`) to every
    relation's interval column, ranked among all their endpoints.

    The input is one interval column per relation; the output columns
    have pairwise distinct left endpoints across relations and preserve
    every intersection among intervals from *different* relations.
    """
    ranks = sorted({p for rel in relations for p in collect_endpoints(rel)})
    rank = {p: r for r, p in enumerate(ranks)}
    n = len(relations)
    return [
        [shift_row((x,), (0,), slot, n, rank)[0] for x in rel]
        for slot, rel in enumerate(relations, 1)
    ]
