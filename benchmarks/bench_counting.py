"""Counting extension benchmarks (Appendix G end to end).

Exact witness counting through the disjoint rewriting: scaling in N,
default vs factored encodings, and the witness-enumeration stream.
"""

import pytest
from conftest import (
    bench_sizes,
    fit_loglog_slope,
    print_table,
    time_scaling,
)

from factored_encoding import count_ij_factored

from repro.core import count_ij, naive_count, witnesses_ij
from repro.queries import catalog
from repro.workloads import random_database

NS = bench_sizes([16, 32, 64])


def _db(n):
    return random_database(
        catalog.triangle_ij(), n, seed=n, domain=15.0 * n, mean_length=6.0
    )


@pytest.mark.slow
def test_count_scaling(benchmark):
    q = catalog.triangle_ij()

    def measure():
        times = time_scaling(NS, _db, lambda db: count_ij(q, db))
        counts = [count_ij(q, _db(n)) for n in NS]
        return times, counts

    times, counts = benchmark.pedantic(measure, rounds=1, iterations=1)
    slope = fit_loglog_slope(NS, times)
    print_table(
        "count_ij scaling (triangle, random workload)",
        ["N", "#witnesses", "time"],
        [
            (n, c, f"{t * 1e3:.0f}ms")
            for n, c, t in zip(NS, counts, times)
        ],
    )
    print(f"fitted slope {slope:.2f} (output-dependent; counts grow too)")
    # exactness at the largest size
    assert counts[-1] == naive_count(q, _db(NS[-1]))


def test_count_encodings_agree(benchmark):
    q = catalog.triangle_ij()
    db = _db(24)

    def both():
        return count_ij(q, db), count_ij_factored(q, db)

    default, factored = benchmark.pedantic(both, rounds=1, iterations=1)
    expected = naive_count(q, db)
    print_table(
        "counting: default vs factored encoding vs oracle",
        ["default", "factored", "naive oracle"],
        [(default, factored, expected)],
    )
    assert default == factored == expected


def test_witness_stream(benchmark):
    q = catalog.triangle_ij()
    db = _db(32)
    total = naive_count(q, db)

    def stream():
        return sum(1 for _ in witnesses_ij(q, db))

    count = benchmark.pedantic(stream, rounds=1, iterations=1)
    assert count == total
    print(f"\nwitness stream produced {count} combinations (= oracle)")
