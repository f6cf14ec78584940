"""Bitstring toolkit tests: the oracle's string splits 𝔉(u,i), dyadic
map F, Figure 7 on node ids."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles.reduction import splits

from repro.intervals import (
    count_splits,
    dyadic_fraction,
    dyadic_interval,
    is_prefix,
    perfect_tree_segment,
)
from repro.intervals.bitstring import node_id

bitstrings = st.text(alphabet="01", min_size=0, max_size=8)


class TestSplits:
    def test_single_part(self):
        assert list(splits("0110", 1)) == [("0110",)]

    def test_two_parts(self):
        got = set(splits("01", 2))
        assert got == {("", "01"), ("0", "1"), ("01", "")}

    def test_empty_string(self):
        assert set(splits("", 3)) == {("", "", "")}

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            list(splits("01", 0))

    def test_count_matches_formula(self):
        for length in range(5):
            for parts in range(1, 5):
                u = "01" * 3
                got = sum(1 for _ in splits(u[:length], parts))
                assert got == count_splits(length, parts)

    @given(bitstrings, st.integers(1, 4))
    def test_concatenation_recovers(self, u, parts):
        for split in splits(u, parts):
            assert "".join(split) == u
            assert len(split) == parts

    @given(bitstrings, st.integers(1, 4))
    def test_splits_distinct(self, u, parts):
        all_splits = list(splits(u, parts))
        assert len(all_splits) == len(set(all_splits))


class TestDyadic:
    def test_examples_from_paper(self):
        # Example 5.1: F(eps)=[0,1), F('0')=[0,1/2), F('1')=[1/2,1), ...
        assert dyadic_fraction("") == (Fraction(0), Fraction(1))
        assert dyadic_fraction("0") == (Fraction(0), Fraction(1, 2))
        assert dyadic_fraction("1") == (Fraction(1, 2), Fraction(1))
        assert dyadic_fraction("00") == (Fraction(0), Fraction(1, 4))

    def test_children_halve(self):
        lo, hi = dyadic_fraction("0110")
        l0, h0 = dyadic_fraction("01100")
        l1, h1 = dyadic_fraction("01101")
        mid = (lo + hi) / 2
        assert (l0, h0) == (lo, mid)
        assert (l1, h1) == (mid, hi)

    def test_invalid_characters(self):
        with pytest.raises(ValueError):
            dyadic_fraction("012")

    @given(bitstrings, bitstrings)
    def test_prefix_iff_intersect(self, u, v):
        """Scaled closed dyadic intervals intersect iff one bitstring is
        a prefix of the other — the backward reduction's key property."""
        max_len = 8
        xu = dyadic_interval(u, max_len)
        xv = dyadic_interval(v, max_len)
        expected = is_prefix(u, v) or is_prefix(v, u)
        assert xu.intersects(xv) == expected

    def test_too_long_raises(self):
        with pytest.raises(ValueError):
            dyadic_interval("010", 2)


class TestPerfectTreeSegment:
    def test_figure7_values(self):
        """Figure 7 (n=2, b=2, depth 4): seg('') = [16,31],
        seg('0') = [16,23], seg('1010') = [26,26]."""
        assert perfect_tree_segment(node_id(""), 4).left == 16
        assert perfect_tree_segment(node_id(""), 4).right == 31
        assert perfect_tree_segment(node_id("0"), 4).left == 16
        assert perfect_tree_segment(node_id("0"), 4).right == 23
        seg = perfect_tree_segment(node_id("1010"), 4)
        assert seg.left == seg.right == 26

    @given(bitstrings, bitstrings)
    def test_prefix_iff_intersect(self, u, v):
        depth = 8
        su = perfect_tree_segment(node_id(u), depth)
        sv = perfect_tree_segment(node_id(v), depth)
        expected = is_prefix(u, v) or is_prefix(v, u)
        assert su.intersects(sv) == expected

    @given(bitstrings)
    def test_child_containment(self, u):
        if len(u) >= 8:
            return
        parent = perfect_tree_segment(node_id(u), 8)
        assert parent.contains(perfect_tree_segment(node_id(u + "0"), 8))
        assert parent.contains(perfect_tree_segment(node_id(u + "1"), 8))

    def test_too_deep_raises(self):
        with pytest.raises(ValueError):
            perfect_tree_segment(node_id("0101"), 3)
