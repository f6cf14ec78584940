"""Interval algebra, segment trees and bitstring encodings.

This subpackage provides the geometric substrate of the paper: closed
intervals, the segment tree with canonical partitions (Section 3), and
the bitstring toolkit used by both reductions (Sections 4 and 5).
"""

from .interval import (
    Interval,
    all_intersect,
    close_open_interval,
    intersect_all,
    minimum_endpoint_gap,
)
from .segment_tree import (
    Segment,
    SegmentTree,
    ancestors,
    elementary_segments,
    is_ancestor,
    is_strict_ancestor,
)
from .bitstring import (
    count_splits,
    dyadic_fraction,
    dyadic_interval,
    is_prefix,
    perfect_tree_segment,
    splits,
)
from .interval_tree import IntervalTree, index_join
from .endpoints import (
    collect_endpoints,
    distinct_left_epsilon,
    make_left_endpoints_distinct,
    rank_space,
    shift_for_distinct_left,
)

__all__ = [
    "Interval",
    "IntervalTree",
    "index_join",
    "all_intersect",
    "close_open_interval",
    "intersect_all",
    "minimum_endpoint_gap",
    "Segment",
    "SegmentTree",
    "ancestors",
    "elementary_segments",
    "is_ancestor",
    "is_strict_ancestor",
    "count_splits",
    "dyadic_fraction",
    "dyadic_interval",
    "is_prefix",
    "perfect_tree_segment",
    "splits",
    "collect_endpoints",
    "distinct_left_epsilon",
    "make_left_endpoints_distinct",
    "rank_space",
    "shift_for_distinct_left",
]
