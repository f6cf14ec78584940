"""Plane-sweep binary interval join (classical, Related Work section).

Computes all intersecting pairs between two interval collections in
``O(N log N + OUT)`` — the building block of the "one join at a time"
baselines the paper contrasts with (partition/sweep family [7, 32]).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator

from ..intervals.interval import Interval


def sweep_join(
    left: Iterable[tuple[Interval, Any]],
    right: Iterable[tuple[Interval, Any]],
) -> Iterator[tuple[Any, Any]]:
    """Enumerate all pairs ``(l_payload, r_payload)`` whose intervals
    intersect.

    Sweeps the endpoints in ascending left-endpoint order, keeping
    per-side active heaps ordered by right endpoint; closed intervals,
    ties resolved so touching intervals (``[a,b]``, ``[b,c]``) match.
    """
    left_sorted = sorted(left, key=lambda p: p[0].left)
    right_sorted = sorted(right, key=lambda p: p[0].left)
    active_left: list[tuple[float, int, Interval, Any]] = []
    active_right: list[tuple[float, int, Interval, Any]] = []
    counter = 0
    i = j = 0
    n, m = len(left_sorted), len(right_sorted)
    while i < n or j < m:
        take_left = j >= m or (
            i < n and left_sorted[i][0].left <= right_sorted[j][0].left
        )
        if take_left:
            interval, payload = left_sorted[i]
            i += 1
            while active_right and active_right[0][0] < interval.left:
                heapq.heappop(active_right)
            for _, _, other, other_payload in active_right:
                yield payload, other_payload
            heapq.heappush(
                active_left, (interval.right, counter, interval, payload)
            )
        else:
            interval, payload = right_sorted[j]
            j += 1
            while active_left and active_left[0][0] < interval.left:
                heapq.heappop(active_left)
            for _, _, other, other_payload in active_left:
                yield other_payload, payload
            heapq.heappush(
                active_right, (interval.right, counter, interval, payload)
            )
        counter += 1


def sweep_join_count(
    left: Iterable[tuple[Interval, Any]],
    right: Iterable[tuple[Interval, Any]],
) -> int:
    """Number of intersecting pairs."""
    return sum(1 for _ in sweep_join(left, right))


def single_shared_interval_variable(query) -> str | None:
    """The shared variable when the query is a two-atom join on exactly
    one interval variable (and nothing else shared)."""
    if len(query.atoms) != 2:
        return None
    a, b = query.atoms
    shared = set(a.variable_names) & set(b.variable_names)
    if len(shared) != 1:
        return None
    name = next(iter(shared))
    variable = next(v for v in a.variables if v.name == name)
    return name if variable.is_interval else None


def sweep_evaluate_binary(query, db, shared: str) -> bool:
    """Boolean plane-sweep evaluation of a two-atom query joined on the
    single interval variable ``shared`` (see
    :func:`single_shared_interval_variable`) — the ``sweep`` strategy."""
    a, b = query.atoms
    a_idx = a.variable_names.index(shared)
    b_idx = b.variable_names.index(shared)
    left = [(t[a_idx], t) for t in db[a.relation].tuples]
    right = [(t[b_idx], t) for t in db[b.relation].tuples]
    for _ in sweep_join(left, right):
        return True
    return False
