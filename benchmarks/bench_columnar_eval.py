"""Columnar evaluation kernels vs the retained tuple-tier oracles.

Four claims, each timed against the *previous* fast path (the tuple
implementations stay in the tree as correctness oracles and fallbacks,
so every comparison here is also a differential test — count/tuple
identity is asserted unconditionally, quick mode included):

* **counting DP**: the vectorized Yannakakis counting DP (int64 count
  arrays, packed-key ``bincount``/``reduceat`` messages) beats the
  dict-of-tuples DP by >=3x per disjunct on a duplicate-heavy acyclic
  3-atom IJ workload — the per-value fan-in is exactly what the
  group-by messages vectorize;
* **generic join**: the level-wise array join (per-atom packed-key
  sort once, ``searchsorted`` prefix ranges, the whole frontier
  advanced one level at a time) beats the dict-trie LFTJ on the cyclic
  triangle disjuncts, where the tuple path has to intersect level sets
  value by value;
* **bag materialisation**: the ``decomposition`` strategy (what
  ``method='auto'`` picks for every cyclic disjunct) materialises its
  bags with the level-wise array join and runs Yannakakis over columnar
  bag relations; on the triangle and the 4-cycle, evaluating every plain
  disjunct and counting every disjoint one beats the tuple bags
  (per-tuple projection, dict tries, dict DP) — hard-asserted, since a
  kernel slower than its fallback has no reason to exist;
* **warm count**: end to end, a memmap-warm ``count_ij`` tail
  (``load_result`` of a v5 frame -> ``count_disjunction``) answers
  >=2x faster with the kernels engaged than the PR 9 tuple tier on the
  very same artifact.

Tuple oracles materialize relations (a ``.tuples`` touch drops the
column block), so each comparison runs the kernel on one artifact and
the oracle on an independently-built twin.

Results land in ``benchmarks/results/columnar_eval.json`` (a CI
artifact of the ``bench-smoke`` job; speed regressions are judged by
``BENCHMARK.json`` + ``benchmarks/e2e`` alone).
"""

import json
import random
import time
from pathlib import Path

from conftest import bench_n, median, print_table, quick_mode, shape_assert

from repro.core.cache_format import load_result, serialize_result
from repro.core.disjunct_eval import count_disjunction
from repro.core.reduction_cache import FORMAT_VERSION
from repro.engine import (
    Database,
    Relation,
    columnar_yannakakis_count,
    use_columnar_kernels,
)
from repro.engine.ej import (
    _label_tree_to_index_tree,
    count_ej,
    evaluate_ej,
    join_atoms_for,
)
from repro.engine.generic_join import generic_join_count
from repro.engine.yannakakis import yannakakis_count
from repro.hypergraph.acyclicity import join_tree
from repro.intervals import Interval
from repro.queries import parse_query
from repro.queries.catalog import cycle_ij, triangle_ij
from repro.reduction import forward_reduce, shift_distinct_left
from repro.workloads import random_database

#: duplicate-heavy acyclic workload (counting DP + warm count): interval
#: columns draw from a tiny pool so every join value has ~n/distinct
#: fan-in, point tags keep the duplicated projections distinct tuples
COUNT_N = bench_n(1000, 80)
COUNT_DISTINCT = 8

#: triangle workload (generic join): all-interval columns, wide enough
#: a pool that the reduction stays moderate but innermost-level
#: intersections have real width
TRIANGLE_N = bench_n(700, 60)
TRIANGLE_DISTINCT = bench_n(40, 12)

#: bag materialisation: uniform random intervals, domain = 4n (dense
#: enough that the bags are not empty, every disjunct is evaluated)
BAGS_TRIANGLE_N = bench_n(120, 20)
BAGS_CYCLE_N = bench_n(60, 10)

ROUNDS = 3

RESULTS = Path(__file__).resolve().parent / "results"
RESULTS_FILE = "columnar_eval.json"


def _counting_query():
    return parse_query("Qc := R([A],p) ∧ S([A],[B],s) ∧ T([B],t)")


def _triangle_query():
    return parse_query("Qt := R([A],[B]) ∧ S([B],[C]) ∧ T([C],[A])")


def duplicate_heavy_database(query, n: int, distinct: int, seed: int):
    """``n`` tuples per relation, interval columns from a ``distinct``-
    interval pool, point columns as fresh uids."""
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


def interval_pool_database(query, n: int, distinct: int, seed: int):
    """All-interval rows from a pool of ``distinct`` short intervals —
    relations are sets, so the duplicate pressure lands on the join
    values, not the tuples."""
    rng = random.Random(seed)
    grid = [float(p) for p in range(2 * distinct)]
    pool: list[Interval] = []
    while len(pool) < distinct:
        lo = rng.choice(grid)
        candidate = Interval(lo, lo + rng.choice([0.0, 1.0, 2.0]))
        if candidate not in pool:
            pool.append(candidate)
    db = Database()
    for atom in query.atoms:
        rows = set()
        tries = 0
        while len(rows) < n and tries < 20 * n:
            tries += 1
            rows.add(tuple(rng.choice(pool) for _ in atom.variables))
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


def _twin_reductions(query, db, copies: int = 2):
    """Independent, identical disjoint provenance reductions — one per
    evaluation path, so tuple oracles can materialize their own copy
    without stripping the kernel side's column blocks."""
    shifted = shift_distinct_left(query, db)
    return [
        forward_reduce(query, shifted, disjoint=True, provenance=True)
        for _ in range(copies)
    ]


def _merge_results(section: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / RESULTS_FILE
    merged = {}
    if path.is_file():
        with path.open() as handle:
            merged = json.load(handle)
    merged[section] = payload
    merged["quick"] = quick_mode()
    with path.open("w") as handle:
        json.dump(merged, handle, indent=2)


def test_counting_dp_beats_dict_dp(benchmark):
    query = _counting_query()
    db = duplicate_heavy_database(query, COUNT_N, COUNT_DISTINCT, seed=7)
    kernel_side, oracle_side = _twin_reductions(query, db)
    pairs = []
    for ej, oracle_ej in zip(
        kernel_side.ej_queries, oracle_side.ej_queries
    ):
        tree = join_tree(ej.hypergraph())
        assert tree is not None  # the 3-atom chain is alpha-acyclic
        pairs.append((ej, oracle_ej, _label_tree_to_index_tree(ej, tree)))

    def run():
        fast_times, dict_times = [], []
        fast_total = dict_total = engaged = 0
        for round_idx in range(ROUNDS):
            start = time.perf_counter()
            fast_total = engaged = 0
            for ej, _, tree in pairs:
                count = columnar_yannakakis_count(
                    join_atoms_for(ej, kernel_side.database), tree
                )
                if count is not None:
                    engaged += 1
                    fast_total += count
            fast_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            dict_total = sum(
                yannakakis_count(
                    join_atoms_for(oracle_ej, oracle_side.database), tree
                )
                for _, oracle_ej, tree in pairs
            )
            dict_times.append(time.perf_counter() - start)
        return fast_total, dict_total, engaged, median(fast_times), median(
            dict_times
        )

    fast_total, dict_total, engaged, fast_s, dict_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # the kernel must actually run — and agree — always, quick included
    assert engaged == len(pairs)
    assert fast_total == dict_total

    speedup = dict_s / max(fast_s, 1e-9)
    print_table(
        f"counting DP per reduced disjunct, duplicate-heavy acyclic IJ, "
        f"|D~| = {kernel_side.database.size}, count = {fast_total}",
        ["dict DP (median)", "columnar DP (median)", "speedup"],
        [
            (
                f"{dict_s * 1e3:.1f}ms",
                f"{fast_s * 1e3:.1f}ms",
                f"x{speedup:.1f}",
            )
        ],
    )
    _merge_results(
        "counting",
        {
            "n_per_relation": COUNT_N,
            "distinct_intervals": COUNT_DISTINCT,
            "transformed_size": kernel_side.database.size,
            "disjuncts": len(pairs),
            "total_count": fast_total,
            "dict_ms": dict_s * 1e3,
            "columnar_ms": fast_s * 1e3,
            "speedup": speedup,
        },
    )
    # acceptance criterion: >=3x over the dict DP on the fan-in-heavy
    # workload; statistical, so full size only
    shape_assert(speedup >= 3.0, f"expected >=3x, got x{speedup:.1f}")


def test_array_lftj_beats_trie_lftj(benchmark):
    query = _triangle_query()
    db = interval_pool_database(
        query, TRIANGLE_N, TRIANGLE_DISTINCT, seed=7
    )
    kernel_side, oracle_side = _twin_reductions(query, db)

    def run():
        fast_times, trie_times = [], []
        fast = trie = None
        for _ in range(ROUNDS):
            start = time.perf_counter()
            fast = [
                generic_join_count(join_atoms_for(ej, kernel_side.database))
                for ej in kernel_side.ej_queries
            ]
            fast_times.append(time.perf_counter() - start)
            with use_columnar_kernels(False):
                start = time.perf_counter()
                trie = [
                    generic_join_count(
                        join_atoms_for(ej, oracle_side.database)
                    )
                    for ej in oracle_side.ej_queries
                ]
                trie_times.append(time.perf_counter() - start)
        return fast, trie, median(fast_times), median(trie_times)

    fast, trie, fast_s, trie_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # per-disjunct count identity — asserted unconditionally
    assert fast == trie

    speedup = trie_s / max(fast_s, 1e-9)
    print_table(
        f"generic join over the triangle's cyclic disjuncts, "
        f"|D~| = {kernel_side.database.size}, count = {sum(fast)}",
        ["trie LFTJ (median)", "level-wise array join (median)", "speedup"],
        [
            (
                f"{trie_s * 1e3:.1f}ms",
                f"{fast_s * 1e3:.1f}ms",
                f"x{speedup:.2f}",
            )
        ],
    )
    _merge_results(
        "lftj",
        {
            "n_per_relation": TRIANGLE_N,
            "distinct_intervals": TRIANGLE_DISTINCT,
            "transformed_size": kernel_side.database.size,
            "total_count": sum(fast),
            "trie_ms": trie_s * 1e3,
            "array_ms": fast_s * 1e3,
            "speedup": speedup,
        },
    )
    # the array join advances whole frontiers where the trie path
    # descends value by value — claim it does not regress below it
    shape_assert(speedup >= 1.1, f"expected >=1.1x, got x{speedup:.2f}")


def test_columnar_bags_beat_tuple_bags(benchmark):
    workloads = [
        ("triangle", triangle_ij(), BAGS_TRIANGLE_N),
        ("4-cycle", cycle_ij(4), BAGS_CYCLE_N),
    ]
    sides = []
    for label, query, n in workloads:
        db = random_database(query, n, seed=7, domain=4 * n)
        plain = [forward_reduce(query, db) for _ in range(2)]
        sides.append((label, n, plain, _twin_reductions(query, db)))

    def answers(plain, disjoint):
        # every disjunct, no short-circuit: the sparse-answer worst case
        return (
            [evaluate_ej(ej, plain.database) for ej in plain.ej_queries],
            [count_ej(ej, disjoint.database) for ej in disjoint.ej_queries],
        )

    def run():
        rows = []
        for label, n, plain, disjoint in sides:
            on_times, off_times = [], []
            on = off = None
            for _ in range(ROUNDS):
                start = time.perf_counter()
                on = answers(plain[0], disjoint[0])
                on_times.append(time.perf_counter() - start)
                with use_columnar_kernels(False):
                    start = time.perf_counter()
                    off = answers(plain[1], disjoint[1])
                    off_times.append(time.perf_counter() - start)
            rows.append((label, n, on, off, median(on_times), median(off_times)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, _, on, off, _, _ in rows:
        # per-disjunct answer identity — asserted unconditionally
        assert on == off, label
    # the kernel side never decoded a row: it engaged on every disjunct
    for _, _, plain, disjoint in sides:
        for result in (plain[0], disjoint[0]):
            assert all(r.columnar is not None for r in result.database)

    on_s = sum(row[4] for row in rows)
    off_s = sum(row[5] for row in rows)
    speedup = off_s / max(on_s, 1e-9)
    print_table(
        "cyclic disjuncts via decomposition: all plain disjuncts "
        "(Boolean) + all disjoint ones (count)",
        ["query", "n", "tuple bags (median)", "columnar bags (median)", "speedup"],
        [
            (
                label,
                n,
                f"{off_t * 1e3:.1f}ms",
                f"{on_t * 1e3:.1f}ms",
                f"x{off_t / max(on_t, 1e-9):.1f}",
            )
            for label, n, _, _, on_t, off_t in rows
        ],
    )
    _merge_results(
        "bags",
        {
            "triangle_n": BAGS_TRIANGLE_N,
            "cycle_n": BAGS_CYCLE_N,
            "total_count": sum(sum(row[2][1]) for row in rows),
            "tuple_ms": off_s * 1e3,
            "columnar_ms": on_s * 1e3,
            "speedup": speedup,
        },
    )
    # not a statistical claim: at full size a kernel that loses to its
    # own fallback is a bug
    if not quick_mode():
        assert speedup > 1.0, f"expected >1x, got x{speedup:.2f}"


def test_warm_count_beats_tuple_tier(benchmark, tmp_path):
    query = _counting_query()
    db = duplicate_heavy_database(query, COUNT_N, COUNT_DISTINCT, seed=7)
    (result,) = _twin_reductions(query, db, copies=1)
    frame = serialize_result(result, FORMAT_VERSION)
    path = tmp_path / "artifact.red"
    path.write_bytes(frame)

    def run():
        on_times, off_times = [], []
        on_total = off_total = None
        for _ in range(ROUNDS):
            # each round replays the full warm tail: memmap load of the
            # frame, then the disjoint count over the loaded artifact
            start = time.perf_counter()
            warm = load_result(path, FORMAT_VERSION)
            on_total = count_disjunction(warm)
            on_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            warm = load_result(path, FORMAT_VERSION)
            with use_columnar_kernels(False):
                off_total = count_disjunction(warm)
            off_times.append(time.perf_counter() - start)
        return on_total, off_total, median(on_times), median(off_times)

    on_total, off_total, on_s, off_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # the warm artifact answers identically either way — always
    assert on_total is not None and on_total == off_total

    speedup = off_s / max(on_s, 1e-9)
    print_table(
        f"warm count_ij tail (load_result + count_disjunction), "
        f"frame = {len(frame) >> 10}KB, count = {on_total}",
        ["tuple tier (median)", "kernels (median)", "speedup"],
        [
            (
                f"{off_s * 1e3:.1f}ms",
                f"{on_s * 1e3:.1f}ms",
                f"x{speedup:.1f}",
            )
        ],
    )
    _merge_results(
        "warm",
        {
            "n_per_relation": COUNT_N,
            "frame_bytes": len(frame),
            "total_count": on_total,
            "tuple_ms": off_s * 1e3,
            "kernels_ms": on_s * 1e3,
            "speedup": speedup,
        },
    )
    # acceptance criterion: >=2x end-to-end on the warm path the PR 9
    # cache format serves; statistical, so full size only
    shape_assert(speedup >= 2.0, f"expected >=2x, got x{speedup:.1f}")
