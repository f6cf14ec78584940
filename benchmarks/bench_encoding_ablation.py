"""Ablation: default vs factored (Id) encoding (Section 1.1, closing).

The paper: the default encoding materialises ``m^k`` variants per atom
of size up to ``O(N log^k N)``; the lossless Id-decomposition keeps one
relation per (atom, variable) of size ``O(N log N)`` — more space
efficient at the same data complexity (modulo log factors).  Measured
here: transformed database sizes and end-to-end Boolean runtimes.
"""

import pytest
from conftest import bench_n, bench_sizes, print_table, shape_assert

from factored_encoding import evaluate_ij_factored, forward_reduce_factored

from repro.core import evaluate_ij
from repro.queries import catalog
from repro.reduction import forward_reduce
from repro.workloads import random_database

NS = bench_sizes([32, 64, 128])


@pytest.mark.slow
def test_encoding_sizes(benchmark):
    q = catalog.triangle_ij()

    def measure():
        rows = []
        for n in NS:
            db = random_database(
                q, n, seed=n, domain=20.0 * n, mean_length=8.0
            )
            default = forward_reduce(q, db)
            factored = forward_reduce_factored(q, db)
            rows.append(
                (
                    n,
                    db.size,
                    default.database.size,
                    factored.database.size,
                    f"{default.database.size / factored.database.size:.2f}",
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "encoding ablation: transformed database sizes (triangle)",
        ["n/rel", "|D|", "|D~| default", "|D~| factored", "ratio"],
        rows,
    )
    # the factored encoding must be smaller, increasingly so with n
    ratios = [r[2] / r[3] for r in rows]
    assert all(r > 1.0 for r in ratios)
    shape_assert(ratios[-1] >= ratios[0] * 0.9, ratios)


@pytest.mark.slow
def test_encoding_runtimes(benchmark):
    q = catalog.triangle_ij()
    n = bench_n(96, 24)
    db = random_database(q, n, seed=5, domain=20.0 * n, mean_length=8.0)

    def both():
        return (
            evaluate_ij(q, db),
            evaluate_ij_factored(q, db),
        )

    default_answer, factored_answer = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert default_answer == factored_answer
    print(
        "\nencodings agree on the Boolean answer "
        f"(N={n}: {default_answer})"
    )
