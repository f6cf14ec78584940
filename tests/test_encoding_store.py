"""The encoding-memoized columnar forward reduction: the
:class:`EncodingStore`, the interned ``split_tuples`` wrapper, the
array variant builder's bit-identity with the naive per-tuple loop of
``tests/oracles``, store reuse by the delta-patch path, and the
session timing stats behind ``repro evaluate --profile``.
"""

import random

from oracles.reduction import (
    apply_delta_rows,
    interval_encodings,
    naive_forward_reduce,
    naive_forward_reduce_factored,
)

from repro.core import QuerySession
from repro.core.reduction_cache import result_digest
from repro.core.session import PROFILE_PHASES
from repro.engine import Database, Relation
from repro.engine.relation import Delta
from repro.intervals import Interval, split_tuples, splits
from repro.queries import parse_query
from repro.reduction import (
    ForwardReducer,
    forward_reduce,
    forward_reduce_factored,
)
from repro.workloads import random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
MIXED = "R([A],x,[B]) ∧ S([B],y) ∧ T([A],[B])"
INTERLEAVED = "R(x,[A],y,[B],z) ∧ S([A],[B])"


def _db(text, n=20, seed=3):
    query = parse_query(text)
    return query, random_database(
        query, n, seed=seed, domain=50.0, mean_length=8.0
    )


# ----------------------------------------------------------------------
# split_tuples: the LRU-safe pure wrapper
# ----------------------------------------------------------------------


class TestSplitTuples:
    def test_matches_the_generator(self):
        for u in ("", "0", "0110", "10101"):
            for parts in (1, 2, 3, 4):
                assert split_tuples(u, parts) == tuple(splits(u, parts))

    def test_results_are_interned(self):
        # the whole point of the wrapper: repeated lookups return the
        # very same tuple objects, so encodings share storage
        assert split_tuples("0110", 3) is split_tuples("0110", 3)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


class TestEncodingStore:
    def test_memo_hits_and_identity(self):
        query, db = _db(TRIANGLE)
        reducer = ForwardReducer(query, db)
        store = reducer.store
        assert store is not None
        value = next(iter(db["R"].tuples))[0]
        first = store.interval_encodings("A", value, 1, False)
        again = store.interval_encodings("A", value, 1, False)
        assert first is again  # served from the memo, not recomputed
        assert store.hits == 1 and store.misses == 1
        assert store.stats()["entries"] == 1

    def test_memoized_encodings_match_the_reference(self):
        query, db = _db(TRIANGLE)
        fast = ForwardReducer(query, db)
        for t in sorted(db["R"].tuples, key=repr):
            for i in (1, 2):
                for flag in (False, True):
                    assert tuple(
                        interval_encodings(
                            fast.trees["A"], fast.k["A"], t[0], i, flag
                        )
                    ) == fast.store.interval_encodings("A", t[0], i, flag)

    def test_reduction_reuses_one_store_across_variants(self):
        query, db = _db(TRIANGLE)
        reducer = ForwardReducer(query, db)
        result = reducer.reduce()
        assert result.encoding_store is reducer.store
        stats = reducer.store.stats()
        # k=2 per variable: each (value, i) pair is needed by several
        # variants, so the memo must be hit across them
        assert stats["hits"] > 0
        # the store's trees are the result's trees (no duplication)
        assert result.encoding_store.trees["A"] is result.segment_trees["A"]


# ----------------------------------------------------------------------
# array builder ≡ naive per-tuple loop
# ----------------------------------------------------------------------


class TestColumnarBitIdentity:
    def test_digest_identical_across_schemas_and_flags(self):
        for text in (TRIANGLE, MIXED, INTERLEAVED):
            query, db = _db(text)
            for disjoint, provenance in (
                (False, False),
                (True, False),
                (False, True),
                (True, True),
            ):
                ref = naive_forward_reduce(query, db, disjoint, provenance)
                fast = forward_reduce(query, db, disjoint, provenance)
                assert result_digest(ref) == result_digest(fast), (
                    text,
                    disjoint,
                    provenance,
                )
                assert ref.variant_counts == {
                    name: dict(counts.items())
                    for name, counts in fast.variant_counts.items()
                }

    def test_self_join_shares_tuple_order(self):
        query = parse_query("R([A],[B]) ∧ R([B],[C])")
        base = parse_query("R([A],[B])")
        db = random_database(base, 15, seed=9, domain=40.0, mean_length=6.0)
        ref = naive_forward_reduce(query, db, True, True)
        fast = forward_reduce(query, db, True, True)
        assert result_digest(ref) == result_digest(fast)

    def test_factored_encoding_shares_the_store(self):
        # repeated interval values across tuples and atoms, so the
        # factored relations genuinely share memoized encodings
        query = parse_query(TRIANGLE)
        pool = [Interval(0, 3), Interval(1, 5), Interval(2, 2), Interval(0, 5)]
        rng = random.Random(4)
        db = Database(
            [
                Relation(
                    name,
                    schema,
                    {
                        (rng.choice(pool), rng.choice(pool))
                        for _ in range(10)
                    },
                )
                for name, schema in (
                    ("R", ("A", "B")),
                    ("S", ("B", "C")),
                    ("T", ("A", "C")),
                )
            ]
        )
        ref = naive_forward_reduce_factored(query, db, disjoint=True)
        fast = forward_reduce_factored(query, db, disjoint=True)
        assert result_digest(ref) == result_digest(fast)
        assert fast.encoding_store is not None
        assert fast.encoding_store.stats()["hits"] > 0

    def test_duplicate_heavy_grouping_is_exact(self):
        """Tuples sharing a whole interval projection (distinct only in
        point columns) exercise the one-expansion-per-group path; the
        counts must still be per input tuple."""
        query = parse_query("R([A],[B],p) ∧ S([A],u)")
        pool = [Interval(0, 4), Interval(2, 6), Interval(1, 1)]
        r_rows = {
            (pool[i % 3], pool[(i + 1) % 3], i) for i in range(12)
        }
        s_rows = {(pool[i % 3], i) for i in range(9)}
        db = Database(
            [
                Relation("R", ("A", "B", "p"), r_rows),
                Relation("S", ("A", "u"), s_rows),
            ]
        )
        ref = naive_forward_reduce(query, db)
        fast = forward_reduce(query, db)
        assert result_digest(ref) == result_digest(fast)
        ref_prov = naive_forward_reduce(query, db, provenance=True)
        fast_prov = forward_reduce(query, db, provenance=True)
        assert result_digest(ref_prov) == result_digest(fast_prov)


# ----------------------------------------------------------------------
# delta patching through the store
# ----------------------------------------------------------------------


class TestPatchReusesStore:
    def test_apply_delta_goes_through_the_result_store(self):
        query, db = _db(TRIANGLE)
        result = forward_reduce(query, db)
        store = result.encoding_store
        hits_before = store.hits + store.misses
        points = sorted(result.segment_trees["A"].endpoints)
        rng = random.Random(1)
        lo, hi = sorted(rng.sample(points, 2))
        b_points = sorted(result.segment_trees["B"].endpoints)
        blo, bhi = sorted(rng.sample(b_points, 2))
        t = (Interval(lo, hi), Interval(blo, bhi))
        if t in db["R"].tuples:  # pragma: no cover - seed-dependent
            return
        result.apply_delta(Delta(99, "insert", "R", t))
        assert store.hits + store.misses > hits_before
        # and the patched artifact matches the naive reduction patched
        # row by row with the same delta
        ref = naive_forward_reduce(query, db)
        apply_delta_rows(ref, Delta(99, "insert", "R", t))
        assert result_digest(ref) == result_digest(result)


# ----------------------------------------------------------------------
# session timing stats (the --profile satellite)
# ----------------------------------------------------------------------


class TestSessionProfile:
    def test_phase_seconds_accumulate(self, tmp_path):
        query, db = _db(TRIANGLE, n=15)
        session = QuerySession(db, cache_dir=tmp_path)
        session.evaluate(query, strategy="reduction")
        session.count(query)
        profile = session.stats.profile()
        assert set(profile) == set(PROFILE_PHASES)
        assert profile["canonicalize"] > 0.0
        assert profile["reduce"] > 0.0
        assert profile["evaluate"] > 0.0
        assert profile["cache_io"] > 0.0  # persistent cache get/put
        # a copy, not the live dict
        profile["reduce"] = -1.0
        assert session.stats.phase_seconds["reduce"] >= 0.0

    def test_warm_answers_skip_reduce_time(self):
        query, db = _db(TRIANGLE, n=15)
        session = QuerySession(db)
        session.evaluate(query, strategy="reduction")
        reduce_cold = session.stats.phase_seconds["reduce"]
        session.evaluate(query, strategy="reduction")  # answer-cache hit
        assert session.stats.phase_seconds["reduce"] == reduce_cold


class TestCliProfile:
    def test_evaluate_profile_prints_breakdown(self, capsys):
        from repro.cli import main

        code = main(
            [
                "evaluate",
                "R([A],[B]) ∧ S([B],[C])",
                "--n",
                "12",
                "--repeat",
                "2",
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile:" in out
        for phase in ("canonicalize", "reduce", "evaluate", "cache-io"):
            assert phase in out, out
