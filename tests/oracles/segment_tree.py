"""The paper's segment tree built the way Section 3 defines it — the
complete binary tree over the elementary segments, recursively, one
object per node, bitstring ids by appending ``0`` / ``1`` — as the
reference for the index arithmetic of
:class:`repro.intervals.SegmentTree`."""

from math import ceil, log2

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
