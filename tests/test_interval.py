"""Unit and property tests for the interval algebra."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.intervals import (
    Interval,
    all_intersect,
    close_open_interval,
    intersect_all,
    minimum_endpoint_gap,
)


def ivl(lo, hi):
    return Interval(float(lo), float(hi))


class TestIntervalBasics:
    def test_point_interval(self):
        p = Interval.point(3.0)
        assert p.is_point
        assert p.left == p.right == 3.0
        assert p.length == 0.0

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    @pytest.mark.parametrize(
        "left,right", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)]
    )
    def test_a_nan_endpoint_is_refused(self, left, right):
        # NaN compares false both ways: ``left > right`` let it through
        with pytest.raises(ValueError, match="NaN"):
            Interval(left, right)
        with pytest.raises(ValueError, match="NaN"):
            Interval.point(math.nan)

    def test_infinite_endpoints_are_kept(self):
        assert Interval(-math.inf, math.inf).contains_point(0.0)
        assert Interval.point(math.inf).is_point

    def test_contains_point(self):
        x = ivl(1, 4)
        assert x.contains_point(1)
        assert x.contains_point(4)
        assert x.contains_point(2.5)
        assert not x.contains_point(0.999)
        assert not x.contains_point(4.001)

    def test_containment(self):
        assert ivl(0, 10).contains(ivl(2, 3))
        assert ivl(0, 10).contains(ivl(0, 10))
        assert not ivl(0, 10).contains(ivl(-1, 3))
        assert not ivl(2, 3).contains(ivl(0, 10))

    def test_intersects_touching(self):
        # closed intervals sharing one endpoint do intersect
        assert ivl(0, 2).intersects(ivl(2, 5))
        assert ivl(2, 5).intersects(ivl(0, 2))

    def test_disjoint(self):
        assert not ivl(0, 1).intersects(ivl(2, 3))
        assert ivl(0, 1).intersection(ivl(2, 3)) is None

    def test_intersection_value(self):
        assert ivl(0, 5).intersection(ivl(3, 8)) == ivl(3, 5)
        assert ivl(0, 5).intersection(ivl(5, 8)) == ivl(5, 5)

    def test_ordering(self):
        assert sorted([ivl(3, 4), ivl(1, 9), ivl(1, 2)]) == [
            ivl(1, 2), ivl(1, 9), ivl(3, 4)
        ]

    def test_shift(self):
        assert ivl(1, 2).shift(0.5, 1.0) == ivl(1.5, 3.0)


class TestIntersectAll:
    def test_single(self):
        assert intersect_all([ivl(1, 2)]) == ivl(1, 2)

    def test_three_way(self):
        # intersection = [max of lefts, min of rights] (Lemma 4.1 proof)
        result = intersect_all([ivl(0, 10), ivl(2, 8), ivl(5, 20)])
        assert result == ivl(5, 8)

    def test_empty_result(self):
        assert intersect_all([ivl(0, 1), ivl(2, 3), ivl(0, 9)]) is None
        assert not all_intersect([ivl(0, 1), ivl(2, 3)])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            intersect_all([])

    def test_common_point(self):
        assert all_intersect([ivl(0, 5), ivl(5, 9), ivl(3, 7)])


class TestEpsilonClosure:
    def test_open_interval_closed(self):
        x = close_open_interval(1.0, 2.0, True, True, 0.25)
        assert x == ivl(1.25, 1.75)

    def test_half_open(self):
        assert close_open_interval(1.0, 2.0, False, True, 0.25) == ivl(1.0, 1.75)
        assert close_open_interval(1.0, 2.0, True, False, 0.25) == ivl(1.25, 2.0)

    def test_minimum_gap(self):
        assert minimum_endpoint_gap([1.0, 4.0, 2.5, 4.0]) == 1.5
        assert minimum_endpoint_gap([1.0, 1.0]) == math.inf
        assert minimum_endpoint_gap([]) == math.inf


bounded_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    a = draw(bounded_floats)
    b = draw(bounded_floats)
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals())
def test_intersects_symmetric(x, y):
    assert x.intersects(y) == y.intersects(x)


@given(intervals(), intervals())
def test_intersects_iff_intersection_nonempty(x, y):
    assert x.intersects(y) == (x.intersection(y) is not None)


@given(intervals(), intervals(), intervals())
def test_intersect_all_matches_pairwise_plus_point(x, y, z):
    """The k-way predicate is equivalent to the max-left point lying in
    every interval (the core of Lemma 4.1)."""
    expected = all_intersect([x, y, z])
    max_left = max(i.left for i in (x, y, z))
    witness = all(i.contains_point(max_left) for i in (x, y, z))
    assert expected == witness


@given(intervals(), intervals())
def test_intersection_is_contained_in_both(x, y):
    z = x.intersection(y)
    if z is not None:
        assert x.contains(z) and y.contains(z)
