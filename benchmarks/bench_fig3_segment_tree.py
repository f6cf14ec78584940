"""Figure 3 / Figure 6: the segment tree substrate.

Regenerates the paper's example tree on I = {[1,4], [3,4]} (canonical
partitions {001, 01, 10} and {011, 10}) and benchmarks construction +
canonical-partition queries at realistic sizes, checking the
``O(N log N)`` construction and ``O(log N)`` partition bounds.
"""

import math
import random

from conftest import bench_n, bench_sizes, print_table

from repro.intervals import Interval, SegmentTree
from repro.intervals.bitstring import bits


def test_fig3_example_tree(benchmark):
    tree = benchmark(lambda: SegmentTree([Interval(1, 4), Interval(3, 4)]))
    cp_14 = [bits(v) for v in tree.cp_ids(Interval(1, 4))]
    cp_34 = [bits(v) for v in tree.cp_ids(Interval(3, 4))]
    print_table(
        "Figure 3: segment tree on I = {[1,4], [3,4]}",
        ["interval", "canonical partition"],
        [("[1,4]", " ".join(cp_14)), ("[3,4]", " ".join(cp_34))],
    )
    assert cp_14 == ["001", "01", "10"]
    assert cp_34 == ["011", "10"]


def _build_intervals(n, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = rng.uniform(0, 100 * n)
        out.append(Interval(lo, lo + rng.expovariate(1 / 50.0)))
    return out


def test_construction_speed(benchmark):
    intervals = _build_intervals(bench_n(4000, 500))
    tree = benchmark(lambda: SegmentTree(intervals))
    assert tree.size >= 2 * len(intervals)


def test_canonical_partition_logarithmic(benchmark):
    rows = []
    for n in bench_sizes([256, 1024, 4096]):
        intervals = _build_intervals(n, seed=n)
        tree = SegmentTree(intervals)
        sizes = [len(tree.cp_ids(x)) for x in intervals[:200]]
        rows.append(
            (n, tree.height, f"{sum(sizes) / len(sizes):.1f}", max(sizes))
        )
        assert max(sizes) <= 2 * tree.height
        assert tree.height <= 2 + math.ceil(math.log2(4 * n + 2))
    print_table(
        "canonical partition sizes vs O(log N) (Property 3.2(3))",
        ["N", "tree height", "mean |CP|", "max |CP|"],
        rows,
    )
    intervals = _build_intervals(bench_n(4096, 500), seed=1)
    tree = SegmentTree(intervals)
    benchmark(
        lambda: [tree.cp_ids(x) for x in intervals[:100]]
    )
