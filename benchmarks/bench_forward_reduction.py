"""Cold forward reduction: encoding-memoized columnar vs. reference.

The cold reduction is paid on every cache miss, warm-up and
``DomainChanged`` rebuild (the delta layer patches what it can, but a
new endpoint always forces Algorithm 1 from scratch).  This benchmark
measures exactly that path on the workload the memoization targets: a
**duplicate-heavy** multi-atom IJ query, where interval values repeat
across tuples — temporal validity windows and spatial MBR coordinates
cluster on shared grids, per the source paper's motivating domains.

Two worlds over identical inputs:

* **reference** — the retained naive per-tuple loop
  (``forward_reduce(..., reference=True)``): every tuple re-walks the
  segment trees (``canonical_partition``) and re-enumerates ``splits``;
* **memoized** — the default path: per-``(variable, value, position)``
  encodings served from the :class:`~repro.reduction.EncodingStore`
  (split families interned globally per Claim C.1), and the columnar
  variant builder expands the cartesian product once per distinct
  interval-column projection group.

The outputs are asserted **digest-identical** unconditionally (quick
mode included); the acceptance criterion is a ≥3× cold-reduction
speedup at full size.  Results land in
``benchmarks/results/forward_reduction.json`` (a CI artifact of the
``bench-smoke`` job).
"""

import json
import random
import time
from pathlib import Path

from conftest import bench_n, median, print_table, quick_mode, shape_assert

from repro.core.reduction_cache import result_digest
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import parse_query
from repro.reduction import forward_reduce

N_PER_RELATION = bench_n(2000, 80)
DISTINCT_INTERVALS = bench_n(10, 6)
ROUNDS = 3

RESULTS = Path(__file__).resolve().parent / "results"


def _query():
    # three interval-interval atoms plus a point tag per atom: point
    # columns keep duplicate interval projections as *distinct* tuples
    # under set semantics, exactly the shape the columnar builder groups
    return parse_query("Qf := R([A],[B],p) ∧ S([B],[C],s) ∧ T([A],[C],t)")


def duplicate_heavy_database(query, n: int, distinct: int, seed: int):
    """``n`` tuples per relation whose interval columns draw from a pool
    of ``distinct`` intervals over a shared endpoint grid — every
    interval value recurs ~``n / distinct`` times per column, and whole
    interval projections recur ~``n / distinct²`` times."""
    rng = random.Random(seed)
    grid = [float(p) for p in range(3 * distinct)]
    pool: list[Interval] = []
    while len(pool) < distinct:
        lo, hi = sorted(rng.sample(grid, 2))
        candidate = Interval(lo, hi)
        if candidate not in pool:
            pool.append(candidate)
    db = Database()
    for atom in query.atoms:
        rows = set()
        uid = 0
        while len(rows) < n:
            uid += 1
            rows.add(
                tuple(
                    rng.choice(pool) if v.is_interval else uid
                    for v in atom.variables
                )
            )
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


def test_cold_reduction_memoized_vs_reference(benchmark):
    query = _query()
    db = duplicate_heavy_database(
        query, N_PER_RELATION, DISTINCT_INTERVALS, seed=7
    )

    def run():
        reference_times = []
        memoized_times = []
        reference = memoized = None
        for _ in range(ROUNDS):
            start = time.perf_counter()
            reference = forward_reduce(query, db, reference=True)
            reference_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            memoized = forward_reduce(query, db)
            memoized_times.append(time.perf_counter() - start)
        return (
            reference,
            memoized,
            median(reference_times),
            median(memoized_times),
        )

    reference, memoized, ref_s, memo_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # bit-identical output — asserted unconditionally, quick included
    assert result_digest(reference) == result_digest(memoized)
    assert memoized.encoding_store is not None
    store_stats = memoized.encoding_store.stats()
    assert store_stats["hits"] > store_stats["misses"], (
        "a duplicate-heavy workload must hit the encoding memo more "
        "often than it misses",
        store_stats,
    )

    speedup = ref_s / max(memo_s, 1e-9)
    print_table(
        f"cold forward reduction, duplicate-heavy 3-atom IJ, "
        f"|D| = {db.size}, |D~| = {memoized.database.size}",
        ["reference (median)", "memoized (median)", "speedup",
         "memo entries", "memo hit rate"],
        [
            (
                f"{ref_s * 1e3:.1f}ms",
                f"{memo_s * 1e3:.1f}ms",
                f"x{speedup:.2f}",
                store_stats["entries"],
                f"{store_stats['hits'] / max(store_stats['hits'] + store_stats['misses'], 1):.2%}",
            )
        ],
    )

    RESULTS.mkdir(exist_ok=True)
    payload = {
        "benchmark": "forward_reduction_cold",
        "n_per_relation": N_PER_RELATION,
        "distinct_intervals": DISTINCT_INTERVALS,
        "database_size": db.size,
        "transformed_size": memoized.database.size,
        "reference_ms": ref_s * 1e3,
        "memoized_ms": memo_s * 1e3,
        "speedup": speedup,
        "encoding_store": store_stats,
        "quick": quick_mode(),
    }
    with (RESULTS / "forward_reduction.json").open("w") as handle:
        json.dump(payload, handle, indent=2)

    # acceptance criterion: >=3x cold-reduction throughput; statistical,
    # so full size only
    shape_assert(speedup >= 3.0, f"expected >=3x, got x{speedup:.2f}")


def test_memoized_reduction_also_wins_on_low_duplication(benchmark):
    """Correctness-of-claim guard: even with little value reuse (every
    interval fresh), the memoized columnar path must never be slower
    than ~half the reference (it skips redundant validation and batches
    the counting even when the memo rarely hits) — and stays digest-
    identical."""
    query = _query()
    n = bench_n(400, 40)
    from repro.workloads import random_database

    db = random_database(query, n, seed=11, domain=4.0 * n, mean_length=6.0)

    def run():
        start = time.perf_counter()
        reference = forward_reduce(query, db, reference=True)
        ref_s = time.perf_counter() - start
        start = time.perf_counter()
        memoized = forward_reduce(query, db)
        memo_s = time.perf_counter() - start
        return reference, memoized, ref_s, memo_s

    reference, memoized, ref_s, memo_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert result_digest(reference) == result_digest(memoized)
    print_table(
        "low-duplication sanity",
        ["reference", "memoized", "ratio"],
        [(f"{ref_s * 1e3:.1f}ms", f"{memo_s * 1e3:.1f}ms",
          f"x{ref_s / max(memo_s, 1e-9):.2f}")],
    )
    shape_assert(
        memo_s <= 2.0 * ref_s,
        f"memoized path regressed on low-duplication input: "
        f"{memo_s * 1e3:.1f}ms vs {ref_s * 1e3:.1f}ms",
    )
