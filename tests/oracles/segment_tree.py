"""The paper's segment tree built the way Section 3 defines it — the
complete binary tree over the elementary segments, recursively, one
object per node, bitstring ids by appending ``0`` / ``1`` — as the
reference for the index arithmetic of
:class:`repro.intervals.SegmentTree` and the source of the naive
reduction oracle's canonical partitions and leaves — plus
:func:`filtering_walk`, the reference order of the tree's whole-column
walk."""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import ceil, log2

import numpy as np

from repro.intervals import elementary_segments


def complete_tree(endpoints) -> dict[str, tuple]:
    """``bitstring -> (lo, hi, lo_open, hi_open, is_leaf)`` for every
    node of the tree over ``endpoints``."""
    nodes: dict[str, tuple] = {}

    def build(segments, name):
        if len(segments) > 1:
            # every level above the last is full (2^(d-1) slots, half of
            # them under the left child) and the last is packed left
            slots = 1 << (ceil(log2(len(segments))) - 1)
            bottom = 2 * (len(segments) - slots)
            n_left = (min(bottom, slots) + slots) // 2
            build(segments[:n_left], name + "0")
            build(segments[n_left:], name + "1")
        first, last = segments[0], segments[-1]
        nodes[name] = (
            first.lo, last.hi, first.lo_open, last.hi_open, len(segments) == 1
        )

    build(elementary_segments(endpoints), "")
    return nodes


def canonical_partition(nodes: dict[str, tuple], left, right) -> list[str]:
    """Definition 3.1 read literally: the nodes whose segment lies in
    ``[left, right]`` while their parent's does not."""
    inside = {b for b, (lo, hi, *_) in nodes.items() if left <= lo and hi <= right}
    return sorted(b for b in inside if not b or b[:-1] not in inside)


def contains(node: tuple, p) -> bool:
    """Whether the segment of ``node`` (a :func:`complete_tree` value)
    contains the point ``p``."""
    lo, hi, lo_open, hi_open, _ = node
    return (lo < p or (lo == p and not lo_open)) and (
        p < hi or (p == hi and not hi_open)
    )


def leaf_of_point(nodes: dict[str, tuple], p) -> str:
    """The one leaf whose segment contains ``p``."""
    (leaf,) = (b for b, node in nodes.items() if node[-1] and contains(node, p))
    return leaf


@lru_cache(maxsize=64)
def literal_tree(endpoints: tuple) -> dict[str, tuple]:
    """:func:`complete_tree`, memoized per endpoint tuple (a reduction
    oracle asks the same tree once per tuple; callers must not mutate
    the result)."""
    return complete_tree(endpoints)


def filtering_walk(tree, values, leaf) -> list[tuple]:
    """The whole-column walk of :class:`repro.intervals.SegmentTree` the
    way its array form first ran it, as the oracle of its unfiltered
    level-array walk: per depth, bottom-up, ``(depth, value positions,
    node ids)`` of the canonical partitions of ``values`` (or, with
    ``leaf``, of the leaves of their left endpoints), the ``l`` side
    then the ``r`` side, each by value.  Values whose range ``l .. r``
    has emptied are dropped before every step, and the walk stops when
    none is left.  Reads the tree's private layout (``_points``,
    ``height``, ``_inner``, ``_bottom``)."""
    points, height, inner = tree._points, tree.height, tree._inner
    owner = np.arange(len(values))
    first = np.array([bisect_left(points, x.left) for x in values], np.int64)
    if leaf:
        rank = first + [bisect_right(points, x.left) for x in values]
        deep = rank < tree._bottom
        ids = np.where(deep, rank, rank - inner - (1 << height >> 1)) + (1 << height)
        return [
            (height, owner[deep], ids[deep]),
            (height - 1, owner[~deep], ids[~deep]),
        ]
    last = np.array([bisect_right(points, x.right) for x in values], np.int64)
    ends = np.stack((2 * first + 1, 2 * last - 1))
    ends = np.where(ends < tree._bottom, ends, 2 * (ends - inner) + [[0], [1]])
    ends += 1 << height
    groups = []
    for depth in range(height, -1, -1):
        keep = ends[0] <= ends[1]
        owner, ends = owner[keep], ends[:, keep]
        if not owner.size:
            break
        take = ends & 1 == [[1], [0]]
        groups.append((depth, np.broadcast_to(owner, ends.shape)[take], ends[take]))
        ends = (ends + [[1], [-1]]) >> 1
    return groups
