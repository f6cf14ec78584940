"""Segment tree tests: Figure 3 exactness and Property 3.2 invariants,
on node ids (Figure 3's bitstrings are rendered with ``bits``)."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.intervals import Interval, SegmentTree, elementary_segments, is_prefix
from repro.intervals.bitstring import bits, node_id


def is_ancestor(u: int, v: int) -> bool:
    """Property 3.2(1) on ids: ``u`` is an ancestor of ``v`` (inclusive)
    iff ``v`` shifted right by the depth difference is ``u``."""
    shift = v.bit_length() - u.bit_length()
    return shift >= 0 and v >> shift == u


def leaves(tree: SegmentTree) -> list[int]:
    """The ids of ``tree``'s leaves: the nodes without a left child."""
    nodes = tree.node_ids()
    return [v for v in nodes if 2 * v not in nodes]


class TestElementarySegments:
    def test_partition_structure(self):
        segs = elementary_segments([1.0, 3.0, 4.0])
        # 2m + 1 segments for m distinct endpoints
        assert len(segs) == 7
        assert segs[0].lo == -math.inf and segs[0].lo_open
        assert segs[-1].hi == math.inf and segs[-1].hi_open
        # point segments at each endpoint
        points = [s for s in segs if s.lo == s.hi]
        assert [(s.lo, s.hi) for s in points] == [(1, 1), (3, 3), (4, 4)]

    def test_duplicates_collapse(self):
        assert len(elementary_segments([2.0, 2.0, 2.0])) == 3

    def test_no_endpoints(self):
        segs = elementary_segments([])
        assert len(segs) == 1
        assert segs[0].contains_point(0.0)

    def test_partition_covers_line(self):
        segs = elementary_segments([1.0, 3.0])
        for p in [-10, 1, 1.5, 3, 3.001, 100]:
            containing = [s for s in segs if s.contains_point(p)]
            assert len(containing) == 1, p


class TestPaperFigure3:
    """The exact tree of Figure 3 on I = {[1,4], [3,4]}."""

    def setup_method(self):
        self.tree = SegmentTree([Interval(1, 4), Interval(3, 4)])

    def cp(self, x):
        return [bits(v) for v in self.tree.cp_ids(x)]

    def test_canonical_partitions(self):
        assert self.cp(Interval(1, 4)) == ["001", "01", "10"]
        assert self.cp(Interval(3, 4)) == ["011", "10"]
        assert self.tree.cp_ids(Interval(3, 4)) == [0b1011, 0b110]

    def test_node_segments(self):
        seg = self.tree.segment(node_id("0"))
        assert seg.lo == -math.inf and seg.hi == 3 and not seg.hi_open
        seg01 = self.tree.segment(node_id("01"))
        assert (seg01.lo, seg01.hi, seg01.lo_open, seg01.hi_open) == (1, 3, True, False)
        seg101 = self.tree.segment(node_id("101"))
        assert seg101.lo == seg101.hi == 4

    def test_shape_is_complete(self):
        # 7 leaves: six at depth 3 packed left, one ('11') at depth 2
        rendered = sorted(map(bits, leaves(self.tree)))
        assert rendered == ["000", "001", "010", "011", "100", "101", "11"]
        assert self.tree.size == len(self.tree.node_ids()) == 13

    def test_leaf_of_points(self):
        assert bits(self.tree.leaf_id(1)) == "001"
        assert bits(self.tree.leaf_id(3)) == "011"
        assert bits(self.tree.leaf_id(3.5)) == "100"
        assert bits(self.tree.leaf_id(99)) == "11"

    def test_leaf_of_interval_is_left_endpoint_leaf(self):
        x = Interval(3, 4)
        assert self.tree.leaf_id(x.left) == node_id("011")


class TestBitstringStructure:
    def test_ancestor_iff_prefix(self):
        assert is_ancestor(node_id("0"), node_id("01"))
        assert is_ancestor(node_id("01"), node_id("01"))
        assert not is_ancestor(node_id("01"), node_id("0"))
        assert is_ancestor(node_id(""), node_id("0"))
        strings = [format(i, "b")[1:] for i in range(1, 32)]  # depth <= 4
        for u in strings:
            for v in strings:
                assert is_ancestor(node_id(u), node_id(v)) == is_prefix(u, v)

    def test_ancestors_list(self):
        # anc(v) from the root down: the climb ``stab`` takes, by shifts
        v = node_id("010")
        assert [bits(v >> up) for up in range(3, -1, -1)] == ["", "0", "01", "010"]


def random_intervals(rng, n, domain=50, max_len=10):
    out = []
    for _ in range(n):
        lo = rng.randint(0, domain)
        out.append(Interval(lo, lo + rng.randint(0, max_len)))
    return out


class TestProperty32:
    """Property 3.2 on randomised inputs."""

    def test_prefix_iff_segment_containment(self):
        rng = random.Random(0)
        tree = SegmentTree(random_intervals(rng, 12))
        nodes = tree.node_ids()
        for u in nodes:
            for v in nodes:
                seg_u, seg_v = tree.segment(u), tree.segment(v)
                contains = (
                    seg_u.lo <= seg_v.lo
                    and seg_v.hi <= seg_u.hi
                    and not (seg_u.lo == seg_v.lo and seg_u.lo_open and not seg_v.lo_open)
                    and not (seg_u.hi == seg_v.hi and seg_u.hi_open and not seg_v.hi_open)
                )
                if is_ancestor(u, v):
                    assert contains, (u, v)

    def test_canonical_partition_is_antichain(self):
        rng = random.Random(1)
        intervals = random_intervals(rng, 20)
        tree = SegmentTree(intervals)
        for x in intervals:
            cp = tree.cp_ids(x)
            for u in cp:
                for v in cp:
                    if u != v:
                        assert not is_ancestor(u, v), (u, v, x)

    def test_canonical_partition_covers_exactly(self):
        rng = random.Random(2)
        intervals = random_intervals(rng, 15)
        tree = SegmentTree(intervals)
        probe_points = sorted(
            {p for x in intervals for p in (x.left, x.right)}
            | {x.left + 0.5 for x in intervals}
            | {x.left - 0.25 for x in intervals}
            | {x.right + 0.25 for x in intervals}
        )
        for x in intervals:
            cp = tree.cp_ids(x)
            for p in probe_points:
                covered = any(tree.segment(u).contains_point(p) for u in cp)
                assert covered == x.contains_point(p), (x, p)

    def test_canonical_partition_disjoint_segments(self):
        rng = random.Random(3)
        intervals = random_intervals(rng, 15)
        tree = SegmentTree(intervals)
        for x in intervals:
            cp = tree.cp_ids(x)
            for leaf in leaves(tree):
                owners = [u for u in cp if is_ancestor(u, leaf)]
                assert len(owners) <= 1

    def test_canonical_partition_logarithmic(self):
        """At most two CP nodes per depth (proof of Property 3.2(3))."""
        rng = random.Random(4)
        intervals = random_intervals(rng, 64)
        tree = SegmentTree(intervals)
        for x in intervals:
            per_depth = {}
            for u in tree.cp_ids(x):
                depth = u.bit_length() - 1
                per_depth[depth] = per_depth.get(depth, 0) + 1
            assert all(c <= 2 for c in per_depth.values()), x


class TestInsertStab:
    def test_stab_matches_brute_force(self):
        rng = random.Random(5)
        intervals = random_intervals(rng, 30)
        tree = SegmentTree(intervals)
        for i, x in enumerate(intervals):
            tree.insert(x, payload=i)
        for p in [0, 1, 7.5, 25, 49, 60, -3]:
            expected = {i for i, x in enumerate(intervals) if x.contains_point(p)}
            assert set(tree.stab(p)) == expected, p

    def test_insert_default_payload(self):
        x = Interval(1, 2)
        tree = SegmentTree([x])
        tree.insert(x)
        assert tree.stab(1.5) == [x]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 8)),
        min_size=1,
        max_size=12,
    ),
    st.integers(-5, 45),
)
def test_stab_property(raw, point):
    intervals = [Interval(lo, lo + ln) for lo, ln in raw]
    tree = SegmentTree(intervals)
    for i, x in enumerate(intervals):
        tree.insert(x, payload=i)
    expected = sorted(
        i for i, x in enumerate(intervals) if x.contains_point(point)
    )
    assert sorted(tree.stab(point)) == expected


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 8)),
        min_size=1,
        max_size=10,
    )
)
def test_intersection_via_cp_and_leaf(raw):
    """Lemma 4.4 for k = 2: intervals x, y with distinct left endpoints
    intersect iff a CP node of one is an ancestor of the other's leaf."""
    intervals = [Interval(lo, lo + ln) for lo, ln in raw]
    tree = SegmentTree(intervals)
    for x in intervals:
        for y in intervals:
            expected = x.intersects(y)
            leaf_y = tree.leaf_id(y.left)
            leaf_x = tree.leaf_id(x.left)
            via_tree = any(is_ancestor(u, leaf_y) for u in tree.cp_ids(x)) or any(
                is_ancestor(u, leaf_x) for u in tree.cp_ids(y)
            )
            assert via_tree == expected, (x, y)
