"""SQL front-end overhead: parse + optimize vs. the cold reduction.

The front-end (tokenize, parse, rewrite/lower, cost-plan every
disjunct) runs once per query text; the cold forward reduction it
feeds runs once per (canonical query, database).  The acceptance
criterion for the ``repro.sql`` subsystem is that the front-end stays **below 5% of one cold reduction** on a
representative workload, i.e. speaking SQL instead of Python ASTs is
free at the granularity the engine actually pays for.

Workload: the Fig. 2 triangle IJ phrased as SQL — three relations,
three pairwise OVERLAPS predicates, lowered by the rewriter to the
3-variable triangle query — over ~3·N interval tuples.  The front-end
is timed over many rounds (it is sub-millisecond); the reduction is
timed cold through :func:`repro.reduction.forward_reduce` on the
lowered query.  A bit-identical check pins the lowering to the
hand-written AST before anything is timed.

Results land in ``benchmarks/results/sql_frontend.json`` (metric:
``overhead_fraction``, lower is better; asserted here at full size).
"""

import json
import random
import time
from pathlib import Path

from conftest import bench_n, median, print_table, quick_mode, shape_assert

from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.core import canonical_form
from repro.queries import parse_query
from repro.reduction import forward_reduce
from repro.sql import compile_sql, plan_disjunct

N_PER_RELATION = bench_n(1200, 500)
FRONTEND_ROUNDS = 25

RESULTS = Path(__file__).resolve().parent / "results"

TRIANGLE_SQL = (
    "SELECT COUNT(*) FROM R r, S s, T t "
    "WHERE r.b OVERLAPS s.b AND s.c OVERLAPS t.c AND r.a OVERLAPS t.a"
)
TRIANGLE_AST = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"


def triangle_database(n: int, seed: int = 7) -> Database:
    rng = random.Random(seed)

    def iv() -> Interval:
        left = rng.uniform(0.0, 30.0 * n / 100)
        return Interval(left, left + rng.uniform(0.5, 6.0))

    db = Database()
    for name, columns in (("R", ("a", "b")), ("S", ("b", "c")), ("T", ("a", "c"))):
        db.add(Relation(name, columns, [(iv(), iv()) for _ in range(n)]))
    return db


def test_frontend_overhead_vs_cold_reduction(benchmark):
    db = triangle_database(N_PER_RELATION)

    # the lowering is pinned before anything is timed: the SQL text and
    # the hand-written AST must canonicalize identically
    probe = compile_sql(TRIANGLE_SQL, db)
    (disjunct,) = probe.disjuncts
    assert not disjunct.scan_filters and not disjunct.residuals
    assert (
        canonical_form(disjunct.query).key
        == canonical_form(parse_query(TRIANGLE_AST)).key
    )

    def run():
        frontend_times = []
        for _ in range(FRONTEND_ROUNDS):
            start = time.perf_counter()
            program = compile_sql(TRIANGLE_SQL, db)
            plans = [plan_disjunct(d, db) for d in program.disjuncts]
            frontend_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        reduced = forward_reduce(program.disjuncts[0].query, db)
        reduction_s = time.perf_counter() - start
        return plans, reduced, median(frontend_times), reduction_s

    plans, reduced, frontend_s, reduction_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert reduced.database.size > 0
    fraction = frontend_s / max(reduction_s, 1e-9)

    print_table(
        f"SQL front-end vs cold reduction, triangle IJ, |D| = {db.size}",
        ["parse+optimize (median)", "cold reduction", "overhead", "strategy"],
        [
            (
                f"{frontend_s * 1e3:.2f}ms",
                f"{reduction_s * 1e3:.1f}ms",
                f"{fraction:.2%}",
                plans[0].strategy,
            )
        ],
    )

    RESULTS.mkdir(exist_ok=True)
    payload = {
        "benchmark": "sql_frontend_overhead",
        "n_per_relation": N_PER_RELATION,
        "database_size": db.size,
        "frontend_ms": frontend_s * 1e3,
        "reduction_ms": reduction_s * 1e3,
        "overhead_fraction": fraction,
        "strategy": plans[0].strategy,
        "quick": quick_mode(),
    }
    with (RESULTS / "sql_frontend.json").open("w") as handle:
        json.dump(payload, handle, indent=2)

    # acceptance criterion: front-end < 5% of one cold reduction
    shape_assert(
        fraction < 0.05,
        f"SQL front-end costs {fraction:.2%} of a cold reduction "
        f"(budget: 5%)",
    )
