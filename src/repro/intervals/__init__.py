"""Interval algebra, segment trees and node-id encodings.

This subpackage provides the geometric substrate of the paper: closed
intervals, the segment tree with canonical partitions (Section 3), and
the node-id toolkit used by both reductions (Sections 4 and 5).
"""

from .interval import (
    Interval,
    all_intersect,
    close_open_interval,
    intersect_all,
    minimum_endpoint_gap,
)
from .segment_tree import Segment, SegmentTree, elementary_segments
from .bitstring import (
    count_splits,
    dyadic_fraction,
    dyadic_interval,
    is_prefix,
    perfect_tree_segment,
)
from .interval_tree import IntervalTree, index_join
from .endpoints import (
    collect_endpoints,
    make_left_endpoints_distinct,
    rank_space,
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
    "elementary_segments",
    "count_splits",
    "dyadic_fraction",
    "dyadic_interval",
    "is_prefix",
    "perfect_tree_segment",
    "collect_endpoints",
    "make_left_endpoints_distinct",
    "rank_space",
]
