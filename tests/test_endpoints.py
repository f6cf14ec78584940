"""Endpoint preprocessing tests (Appendix G.1, Example 4.12)."""

import random

from repro.intervals import (
    Interval,
    collect_endpoints,
    make_left_endpoints_distinct,
    rank_space,
)


def random_columns(seed, n_relations=3, n=8, domain=10):
    rng = random.Random(seed)
    cols = []
    for _ in range(n_relations):
        col = []
        for _ in range(n):
            lo = rng.randint(0, domain)
            col.append(Interval(lo, lo + rng.randint(0, 4)))
        cols.append(col)
    return cols


class TestRankSpace:
    def test_preserves_intersections(self):
        for seed in range(10):
            (col,) = random_columns(seed, n_relations=1, n=12)
            ranked = rank_space(col)
            for i, x in enumerate(col):
                for j, y in enumerate(col):
                    assert x.intersects(y) == ranked[i].intersects(ranked[j])

    def test_integer_compact_range(self):
        col = [Interval(10.5, 20.25), Interval(3.0, 10.5)]
        ranked = rank_space(col)
        endpoints = set(collect_endpoints(ranked))
        assert endpoints <= set(range(len(endpoints)))


class TestDistinctLeftShift:
    def test_distinct_across_relations(self):
        for seed in range(10):
            cols = random_columns(seed)
            shifted = make_left_endpoints_distinct(cols)
            lefts: dict[float, int] = {}
            for i, col in enumerate(shifted):
                for x in col:
                    owner = lefts.setdefault(x.left, i)
                    assert owner == i, (seed, x)

    def test_preserves_cross_relation_intersections(self):
        for seed in range(10):
            cols = random_columns(seed)
            shifted = make_left_endpoints_distinct(cols)
            for i in range(len(cols)):
                for j in range(len(cols)):
                    if i == j:
                        continue
                    for a, x in enumerate(cols[i]):
                        for b, y in enumerate(cols[j]):
                            assert x.intersects(y) == shifted[i][a].intersects(
                                shifted[j][b]
                            ), (seed, i, j, x, y)

    def test_identical_endpoints(self):
        cols = [[Interval(1, 1)], [Interval(1, 1)]]
        (a,), (b,) = make_left_endpoints_distinct(cols)
        assert a.left != b.left
        assert a.intersects(b)  # identical intervals still intersect

    def test_exact_past_two_to_the_53(self):
        """A float epsilon rounds away at ``2**53``: the first two
        relations kept one left endpoint.  Ranks keep them apart."""
        big = 2**53
        cols = [
            [Interval(big, big + 4)],
            [Interval(big, big + 8)],
            [Interval(big + 2, big + 6)],
        ]
        shifted = make_left_endpoints_distinct(cols)
        assert len({col[0].left for col in shifted}) == 3
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert shifted[i][0].intersects(shifted[j][0])
