"""The encoding-memoized columnar forward reduction: the integer split
family ``𝔉(u, i)`` and its memoized cut plan, the one encoding memo on
the segment tree, the array variant builder's bit-identity with the
naive per-tuple loop of ``tests/oracles``, memo reuse by the
delta-patch path, and the session timing stats behind ``repro evaluate
--profile``.
"""

import random
from collections import Counter

import numpy as np
from oracles.reduction import (
    apply_delta_rows,
    interval_encodings,
    naive_forward_reduce,
    splits,
)

from repro.core import QuerySession
from repro.core.reduction_cache import result_digest
from repro.core.session import PROFILE_PHASES
from repro.engine import Database, Relation
from repro.engine.relation import Delta
from repro.intervals import Interval, SegmentTree, count_splits, segment_tree
from repro.intervals.bitstring import EMPTY, _cut_plan, bits, node_id, split_ids
from repro.queries import parse_query
from repro.reduction import ForwardReducer, forward_reduce
from repro.workloads import random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
MIXED = "R([A],x,[B]) ∧ S([B],y) ∧ T([A],[B])"
INTERLEAVED = "R(x,[A],y,[B],z) ∧ S([A],[B])"


def _db(text, n=20, seed=3):
    query = parse_query(text)
    return query, random_database(
        query, n, seed=seed, domain=50.0, mean_length=8.0
    )


def _rows(matrix):
    """An encoding matrix as the oracle's list of part-id tuples."""
    return list(map(tuple, matrix.tolist()))


# ----------------------------------------------------------------------
# 𝔉(u, i) on node ids
# ----------------------------------------------------------------------


class TestSplitTuples:
    def test_matches_the_generator(self):
        """Integer 𝔉(u, i) ≡ ``splits(u, i)``, in order, of the size
        Claim C.1 gives, for every bitstring up to length 6."""
        for length in range(7):
            for value in range(1 << length):
                u = format(value, "b").zfill(length) if length else ""
                for parts in (1, 2, 3, 4):
                    matrix = split_ids(node_id(u), parts)
                    assert _rows(matrix) == [
                        tuple(map(node_id, split)) for split in splits(u, parts)
                    ]
                    assert matrix.shape == (count_splits(length, parts), parts)
        assert bits(EMPTY) == "" and node_id("") == EMPTY

    def test_results_are_interned(self):
        # one cut plan per (len(u), i) serves every node of that depth,
        # and it cannot be written through
        assert _cut_plan(4, 3) is _cut_plan(4, 3)
        assert not any(plan.flags.writeable for plan in _cut_plan(4, 3))


# ----------------------------------------------------------------------
# the one memo: (value, i, leaf?, nonempty_last) -> matrix, on the tree
# ----------------------------------------------------------------------


class TestEncodingStore:
    def test_memo_hits_and_identity(self):
        query, db = _db(TRIANGLE)
        tree = ForwardReducer(query, db).trees["A"]
        value = next(iter(db["R"].tuples))[0]
        first = tree.encodings(value, 1, False, False)
        again = tree.encodings(value, 1, False, False)
        assert first is again  # served from the memo, not recomputed
        assert not first.flags.writeable  # shared, so read-only
        assert len(tree._encodings) == 1
        assert tree.encodings(value, 1, True, False) is not first

    def test_memoized_encodings_match_the_reference(self):
        """... the Appendix G non-empty-last filter included."""
        query, db = _db(TRIANGLE)
        fast = ForwardReducer(query, db)
        tree, k = fast.trees["A"], fast.k["A"]
        filtered = 0
        for t in sorted(db["R"].tuples, key=repr):
            for i in (1, 2):
                for flag in (False, True):
                    got = tree.encodings(t[0], i, i == k, flag)
                    assert _rows(got) == interval_encodings(
                        tree, k, t[0], i, flag
                    )
                    filtered += len(tree.encodings(t[0], i, i == k, False)) - len(got)
        assert filtered > 0

    def test_reduction_reuses_one_store_across_variants(self, monkeypatch):
        """An interval variable's columns are one encoding batch: its
        tree walks the batch once per kind (CP, leaf) and cuts it once
        per (i, leaf?, nonempty_last), however many of the 12 relation
        variants ask, and a value's scalar lookup is a slice of that
        batch."""
        walks, cuts = Counter(), []
        walk, cut = SegmentTree._walk, segment_tree._cut

        def counted_walk(tree, values, first, leaf):
            walks[id(tree), leaf] += 1
            return walk(tree, values, first, leaf)

        def counted_cut(*args):
            cuts.append(args[2:])
            return cut(*args)

        monkeypatch.setattr(SegmentTree, "_walk", counted_walk)
        monkeypatch.setattr(segment_tree, "_cut", counted_cut)
        query, db = _db(TRIANGLE)
        reducer = ForwardReducer(query, db, disjoint=True, provenance=True)
        result = reducer.reduce()
        # the result's trees are the reducer's (no duplication) ...
        trees = result.segment_trees
        assert trees["A"] is reducer.trees["A"]
        assert len(result.database.relation_names) == 12  # 4 variants/atom
        # ... walked exactly 3 trees x {CP, leaf} times ...
        assert walks == {(id(trees[x]), leaf): 1 for x in "ABC" for leaf in (False, True)}
        # ... and cut once per (tree, i, leaf?, nonempty_last): k = 2
        # everywhere, so i = 1 is the CP variant, i = 2 the leaf one and
        # no position carries the ordering constraint
        assert sorted(cuts) == sorted([(1, False), (2, False)] * 3)
        for x, tree in trees.items():
            (batch,) = tree._columns  # both columns under x, end to end
            values, offsets = reducer._batches[x]
            assert batch[1] is values and sorted(offsets) == sorted(
                (a.relation, a.variable_names.index(x))
                for a in query.atoms_containing(x)
            )
            assert set(batch[3]) == {False, True}
            assert set(batch[4]) == {(1, False, False), (2, True, False)}
        # the batch path fills no per-value memo; the tree answers a
        # value from the batch as a zero-copy, read-only slice
        tree = trees["A"]
        assert not tree._encodings
        value = next(iter(db["R"].tuples))[0]
        matrix = tree._columns[0][4][1, False, False][0]
        served = tree.encodings(value, 1, False, False)
        assert np.shares_memory(served, matrix) and not served.flags.writeable
        assert sorted(_rows(served)) == sorted(
            interval_encodings(tree, 2, value, 1, False)
        )


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
# delta patching through the trees' memo
# ----------------------------------------------------------------------


class TestPatchReusesStore:
    def test_apply_delta_goes_through_the_result_store(self):
        query, db = _db(TRIANGLE)
        result = forward_reduce(query, db)
        memo = result.segment_trees["A"]._encodings
        entries_before = len(memo)
        points = sorted(result.segment_trees["A"].endpoints)
        rng = random.Random(1)
        lo, hi = sorted(rng.sample(points, 2))
        b_points = sorted(result.segment_trees["B"].endpoints)
        blo, bhi = sorted(rng.sample(b_points, 2))
        t = (Interval(lo, hi), Interval(blo, bhi))
        if t in db["R"].tuples:  # pragma: no cover - seed-dependent
            return
        result.apply_delta(Delta(99, "insert", "R", t))
        assert len(memo) > entries_before and any(k[0] == t[0] for k in memo)
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
