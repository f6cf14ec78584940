"""Classical binary intersection-join algorithms (Section 2).

Three members of the families the paper surveys, all ``O(N log N + OUT)``:

* :func:`forward_scan_join` — the FS plane-sweep of Bouros and
  Mamoulis [11]: both inputs sorted by left endpoint; for each interval
  the other list is scanned forward while intervals still start before
  it ends;
* :func:`partition_join` — a one-dimensional partition-based join (the
  spatial-hash/size-separation family [20, 22]): the domain is split
  into uniform cells, intervals replicated into overlapping cells,
  candidate pairs verified exactly, with duplicate suppression by the
  standard reference-point technique;
* the heap-based :func:`~repro.core.sweep.sweep_join` lives in its own
  module.

All three are differential-tested against each other; the engine's
planner uses the heap sweep, these exist as comparators and for the
substrate benchmarks.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator

from ..intervals.interval import Interval


def forward_scan_join(
    left: Iterable[tuple[Interval, Any]],
    right: Iterable[tuple[Interval, Any]],
) -> Iterator[tuple[Any, Any]]:
    """FS plane sweep [11]: merge two left-endpoint-sorted lists; each
    popped interval forward-scans the opposite list."""
    ls = sorted(left, key=lambda p: p[0].left)
    rs = sorted(right, key=lambda p: p[0].left)
    i = j = 0
    while i < len(ls) and j < len(rs):
        if ls[i][0].left <= rs[j][0].left:
            interval, payload = ls[i]
            k = j
            while k < len(rs) and rs[k][0].left <= interval.right:
                yield payload, rs[k][1]
                k += 1
            i += 1
        else:
            interval, payload = rs[j]
            k = i
            while k < len(ls) and ls[k][0].left <= interval.right:
                yield ls[k][1], payload
                k += 1
            j += 1


def partition_join(
    left: Iterable[tuple[Interval, Any]],
    right: Iterable[tuple[Interval, Any]],
    cells: int | None = None,
) -> Iterator[tuple[Any, Any]]:
    """Partition-based join: replicate intervals into uniform cells,
    verify candidates per cell, deduplicate by reference point.

    A pair is reported only from the cell containing the left endpoint
    of the pair's intersection — the classical trick making replication
    duplicate-free without a global dedup table [29].
    """
    ls = list(left)
    rs = list(right)
    if not ls or not rs:
        return
    lo = min(x.left for x, _ in ls + rs)
    hi = max(x.right for x, _ in ls + rs)
    if cells is None:
        cells = max(1, int(math.sqrt(len(ls) + len(rs))))
    width = (hi - lo) / cells or 1.0

    def cell_range(x: Interval) -> range:
        first = min(max(int((x.left - lo) / width), 0), cells - 1)
        last = min(int((x.right - lo) / width), cells - 1)
        return range(first, last + 1)

    buckets: dict[int, list[tuple[Interval, Any]]] = {}
    for x, payload in rs:
        for c in cell_range(x):
            buckets.setdefault(c, []).append((x, payload))
    for x, payload in ls:
        for c in cell_range(x):
            for y, other in buckets.get(c, ()):
                if not x.intersects(y):
                    continue
                # reference point: the left end of the intersection
                ref = max(x.left, y.left)
                ref_cell = min(int((ref - lo) / width), cells - 1)
                if ref_cell == c:
                    yield payload, other
