"""Lemma 4.10: transformed relation sizes.

For a variable occurring in k atoms, the atom at permutation position
``i`` grows by ``O(log^i N)`` (CP variant, i < k) or ``O(log^{i-1} N)``
(leaf variant, i = k).  Measured on the two-atom query
``R([A]) ∧ S([A])`` where the variants isolate cleanly, and on the
triangle where two variables compound multiplicatively.
"""

from time import perf_counter

from conftest import bench_n, bench_sizes, polylog_ratio, print_table, shape_assert

from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce
from repro.workloads import random_database

NS = bench_sizes([64, 128, 256, 512])


def test_variant_growth_two_atoms(benchmark):
    q = parse_query("Qp := R([A]) ∧ S([A])")

    def measure():
        rows = []
        for n in NS:
            db = random_database(
                q, n, seed=n, domain=30.0 * n, mean_length=10.0 * n ** 0.5
            )
            started = perf_counter()
            result = forward_reduce(q, db)
            reduce_ms = (perf_counter() - started) * 1e3
            sizes = {
                name: len(result.database[name])
                for name in result.database.relation_names
            }
            cp1 = max(
                v for k, v in sizes.items() if k.endswith("~A1")
            )
            leaf2 = max(
                v for k, v in sizes.items() if k.endswith("~A2")
            )
            rows.append((n, cp1, leaf2, result.blowup(db), reduce_ms))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    display = [
        (
            n,
            cp1,
            f"{cp1 / (n * polylog_ratio(n, 1)):.2f}",
            leaf2,
            f"{leaf2 / (n * polylog_ratio(n, 1)):.2f}",
            f"{blowup:.1f}",
            f"{reduce_ms:.1f}",
        )
        for n, cp1, leaf2, blowup, reduce_ms in rows
    ]
    print_table(
        "Lemma 4.10 on R([A]) ∧ S([A]): CP (i=1) ~ N log N, "
        "leaf (i=2) ~ N log N; the blow-up beside its build time",
        [
            "N", "|CP i=1|", "/(N logN)", "|leaf i=2|", "/(N logN)",
            "|D~|/|D|", "reduce ms",
        ],
        display,
    )
    # normalised columns bounded above and below
    for idx in (1, 2):
        normalised = [
            row[idx] / (row[0] * polylog_ratio(row[0], 1)) for row in rows
        ]
        shape_assert(max(normalised) < 6 * min(normalised), normalised)


def test_triangle_variant_sizes(benchmark):
    q = catalog.triangle_ij()
    n = bench_n(128, 32)
    db = random_database(q, n, seed=0, domain=20.0 * n, mean_length=8.0)
    result = benchmark(lambda: forward_reduce(q, db))
    rows = []
    for name in sorted(result.database.relation_names):
        rel = result.database[name]
        rows.append((name, len(rel), f"{len(rel) / n:.1f}"))
    print_table(
        "triangle variant sizes at N=128 (each <= N log^2 N)",
        ["variant", "size", "size/N"],
        rows,
    )
    bound = n * polylog_ratio(3 * n, 2) * 12
    for _, size, _ in rows:
        assert size <= bound
