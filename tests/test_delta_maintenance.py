"""Delta maintenance: mutations that patch reductions instead of
rebuilding them.

Covers the whole stack, bottom-up:

* the :class:`~repro.engine.relation.Database` mutation API and its
  bounded change log (:class:`~repro.engine.relation.Delta`);
* :meth:`~repro.intervals.segment_tree.SegmentTree.in_domain` — placing
  a *new* interval against an existing endpoint domain;
* :meth:`~repro.reduction.forward.ForwardReductionResult.apply_delta` —
  tuple-level patches of the transformed database, checked
  differentially against a fresh reduction;
* the array-native patch path — columnar variants are patched on their
  code matrices and refcount arrays (copy-on-write), pinned on the
  ``REPRO_FUZZ_SEED`` matrix against the dict/set row patcher of
  ``tests/oracles`` and a fresh reduction, through re-persist and
  memmap loads;
* the :class:`~repro.core.session.QuerySession` integration — in-domain
  deltas patch cached reductions in place (``stats.delta_patches``),
  everything else falls back to the digest-diff rebuild;
* :meth:`~repro.core.reduction_cache.ReductionCache.prune` and the
  ``--cache-max-bytes`` CLI wiring.
"""

import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracles.reduction import apply_delta_rows, naive_forward_reduce
from test_differential_cache import (
    SCENARIOS,
    _patchable_deltas,
    build_database,
    random_queries,
    scenario_seed,
)

from repro.cli import main as cli_main
from repro.core import (
    QuerySession,
    ReductionCache,
    evaluate_disjunction,
    naive_count,
    naive_evaluate,
    reduction_key,
)
from repro.core.cache_format import (
    _parse_frame,
    load_result,
    serialize_result,
    validate_entry_bytes,
)
from repro.core.reduction_cache import FORMAT_VERSION, database_digests
from repro.engine import Database, Delta, Relation
from repro.intervals import Interval, SegmentTree
from repro.queries import parse_query
from repro.reduction import DomainChanged, forward_reduce
from repro.reduction.columnar import (
    CODE_DTYPE,
    COL_CODE,
    COUNT_DTYPE,
    CodeBook,
    ColumnarCounts,
    ColumnBlock,
)
from repro.workloads import random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"


def iv(lo, hi):
    return Interval(lo, hi)


# ----------------------------------------------------------------------
# the Database mutation API and change log
# ----------------------------------------------------------------------


class TestDatabaseMutationAPI:
    def make(self):
        return Database(
            [Relation("R", ("A", "B"), [(iv(0, 2), iv(1, 3))])]
        )

    def test_insert_returns_a_versioned_delta(self):
        db = self.make()
        before = db.version
        delta = db.insert("R", (iv(4, 5), iv(4, 6)))
        assert isinstance(delta, Delta)
        assert delta.kind == "insert" and delta.relation == "R"
        assert delta.tuple == (iv(4, 5), iv(4, 6))
        assert delta.is_tuple_level
        assert delta.version == db.version == before + 1
        assert (iv(4, 5), iv(4, 6)) in db["R"]

    def test_duplicate_insert_is_an_unlogged_noop(self):
        db = self.make()
        before = db.version
        assert db.insert("R", (iv(0, 2), iv(1, 3))) is None
        assert db.version == before
        assert len(db["R"]) == 1

    def test_insert_validates_arity(self):
        db = self.make()
        with pytest.raises(ValueError):
            db.insert("R", (iv(0, 1),))

    def test_delete_and_absent_delete(self):
        db = self.make()
        delta = db.delete("R", (iv(0, 2), iv(1, 3)))
        assert delta.kind == "delete" and delta.is_tuple_level
        assert len(db["R"]) == 0
        assert db.delete("R", (iv(0, 2), iv(1, 3))) is None

    def test_replace_swaps_the_relation_wholesale(self):
        db = self.make()
        delta = db.replace(Relation("R", ("A", "B"), [(iv(9, 9), iv(9, 9))]))
        assert delta.kind == "replace" and not delta.is_tuple_level
        assert db["R"].tuples == {(iv(9, 9), iv(9, 9))}
        with pytest.raises(KeyError):
            db.replace(Relation("Z", ("A",), []))

    def test_remove_drops_the_relation(self):
        db = self.make()
        delta = db.remove("R")
        assert delta.kind == "remove"
        assert "R" not in db
        with pytest.raises(KeyError):
            db.remove("R")

    def test_changes_since_replays_in_order(self):
        db = self.make()
        v0 = db.version
        d1 = db.insert("R", (iv(4, 5), iv(4, 5)))
        d2 = db.delete("R", (iv(0, 2), iv(1, 3)))
        assert db.changes_since(v0) == [d1, d2]
        assert db.changes_since(d1.version) == [d2]
        assert db.changes_since(db.version) == []

    def test_trimmed_log_reports_incomplete(self):
        db = self.make()
        db.CHANGE_LOG_MAX = 3
        v0 = db.version
        for i in range(6):
            db.insert("R", (iv(10 + i, 11 + i), iv(10 + i, 11 + i)))
        assert db.changes_since(v0) is None  # trimmed past v0
        recent = db.changes_since(db.version - 2)
        assert recent is not None and len(recent) == 2


# ----------------------------------------------------------------------
# locating new intervals in an existing segment tree
# ----------------------------------------------------------------------


class TestSegmentTreeLocate:
    def make(self):
        return SegmentTree([iv(0, 4), iv(2, 6), iv(5, 9)])

    def test_endpoint_domain(self):
        tree = self.make()
        assert tree.endpoints == (0, 2, 4, 5, 6, 9)
        assert tree.in_domain(iv(2, 5))
        assert not tree.in_domain(iv(2, 7))
        assert not tree.in_domain(iv(-1, 4))

    def test_locate_matches_the_build_time_paths(self):
        tree = self.make()
        x = iv(2, 9)  # new interval, both endpoints in the domain
        assert tree.in_domain(x)
        # exactly the tree a rebuild with x included would give
        rebuilt = SegmentTree([iv(0, 4), iv(2, 6), iv(5, 9), x])
        assert rebuilt.node_ids() == tree.node_ids()
        canonical = tree.cp_ids(x)
        assert canonical == rebuilt.cp_ids(x)
        assert tree.leaf_id(x.left) == rebuilt.leaf_id(x.left)
        # the canonical partition tiles x exactly: every segment inside
        segments = [tree.segment(v) for v in canonical]
        assert all(x.left <= s.lo and s.hi <= x.right for s in segments)
        assert min(s.lo for s in segments) == x.left
        assert max(s.hi for s in segments) == x.right

    def test_out_of_domain_reports_cleanly(self):
        """An endpoint outside the domain is a plain ``False`` from the
        tree (its canonical partition would overshoot or fall short of
        the interval) and a :class:`DomainChanged` naming the interval
        from the artifact that was asked to absorb it."""
        tree = self.make()
        x = iv(2, 7)
        assert not tree.in_domain(x)
        covered = [tree.segment(v) for v in tree.cp_ids(x)]
        assert max(s.hi for s in covered) == 6  # short of 7
        q = parse_query("R([A]) ∧ S([A])")
        db = Database(
            [
                Relation("R", ("A",), {(iv(0, 4),), (iv(2, 6),)}),
                Relation("S", ("A",), {(iv(5, 9),)}),
            ]
        )
        result = forward_reduce(q, db)
        with pytest.raises(DomainChanged) as error:
            result.apply_delta(Delta(1, "insert", "R", (x,)))
        assert "7" in str(error.value)


# ----------------------------------------------------------------------
# patching a reduction result differentially against a fresh reduce
# ----------------------------------------------------------------------


def _random_db(query, rng, n=20):
    def interval():
        lo = rng.randint(0, 25)
        return iv(lo, lo + rng.randint(0, 6))

    db = Database()
    for atom in query.atoms:
        rows = {
            tuple(interval() for _ in atom.variables) for _ in range(n)
        }
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


def _in_domain_tuple(result, relation, rng):
    """A new source tuple for ``relation`` whose interval endpoints all
    lie in the reduction's segment-tree domains.  For a G.1-shifted
    artifact that is a narrower set: its left endpoint must rank at the
    atom's slot and its right one at slot ``n``.  Works off the
    reduction's *own* query (which may be the canonical renaming), so it
    is usable against session-cached artifacts too."""
    atoms = result.original.atoms
    atom = next(a for a in atoms if a.relation == relation)
    n, slot = len(atoms), atoms.index(atom) + 1
    row = []
    for v in atom.variables:
        points = sorted(result.segment_trees[v.name].endpoints)
        if result.ranks is None:
            lo, hi = sorted(rng.sample(points, 2))
        else:
            ranked = [(p % (n + 1), result.ranks[p // (n + 1)]) for p in points]
            lo = rng.choice([p for at, p in ranked if at == slot])
            hi = rng.choice([p for at, p in ranked if at == n and p >= lo])
        row.append(iv(lo, hi))
    return tuple(row)


class TestApplyDelta:
    @pytest.mark.parametrize("provenance", [False, True])
    def test_insert_then_delete_round_trips(self, provenance):
        rng = random.Random(3)
        q = parse_query(TRIANGLE)
        db = _random_db(q, rng)
        for trial in range(8):
            result = forward_reduce(
                q, db, disjoint=provenance, provenance=provenance
            )
            name = q.atoms[trial % 3].relation
            t = _in_domain_tuple(result, name, rng)
            delta = db.insert(name, t)
            if delta is None:
                continue
            result.apply_delta(delta)
            fresh = forward_reduce(
                q, db, disjoint=provenance, provenance=provenance
            )
            for rel in fresh.database.relation_names:
                patched, expected = result.database[rel], fresh.database[rel]
                # provenance ids may be assigned differently; compare
                # the id-free projection
                keep = [
                    c for c in expected.schema if not c.startswith("__id_")
                ]
                assert (
                    patched.project(keep).tuples
                    == expected.project(keep).tuples
                ), (provenance, trial, rel)
            result.apply_delta(db.delete(name, t))
            back = forward_reduce(
                q, db, disjoint=provenance, provenance=provenance
            )
            for rel in back.database.relation_names:
                patched, expected = result.database[rel], back.database[rel]
                keep = [
                    c for c in expected.schema if not c.startswith("__id_")
                ]
                assert (
                    patched.project(keep).tuples
                    == expected.project(keep).tuples
                ), ("delete", provenance, trial, rel)

    def test_deleting_one_of_two_row_sharing_tuples_keeps_shared_rows(self):
        """Set semantics: two input tuples can derive the same
        transformed row; deleting one must decrement the refcount, not
        remove the other's row (and a later rebuild-free evaluation
        must still be correct)."""
        q = parse_query("R([A]) \u2227 S([A])")
        db = Database(
            [
                Relation("R", ("A",), [(iv(0, 1),), (iv(0, 3),)]),
                Relation("S", ("A",), [(iv(0, 8),), (iv(2, 5),)]),
            ]
        )
        result = forward_reduce(q, db)
        shared = {
            (name, row)
            for name, counts in result.variant_counts.items()
            if name.startswith("R~")
            for row, count in counts.items()
            if count >= 2
        }
        assert shared, "instance must actually share derived rows"
        result.apply_delta(db.delete("R", (iv(0, 1),)))
        for name, row in shared:
            assert row in result.database[name].tuples, (name, row)
            assert dict(result.variant_counts[name].items())[row] == 1
        assert evaluate_disjunction(result) == naive_evaluate(q, db)
        # deleting the second tuple finally clears the shared rows
        result.apply_delta(db.delete("R", (iv(0, 3),)))
        for name, row in shared:
            assert row not in result.database[name].tuples, (name, row)
        assert evaluate_disjunction(result) == naive_evaluate(q, db)

    def test_point_variable_atoms_patch_their_copies(self):
        q = parse_query("R([A], P) ∧ S([A], P) ∧ U(P, W)")
        rng = random.Random(11)
        db = Database()
        for atom in q.atoms:
            rows = set()
            for _ in range(8):
                row = []
                for v in atom.variables:
                    if v.is_interval:
                        lo = rng.randint(0, 9)
                        row.append(iv(lo, lo + rng.randint(0, 3)))
                    else:
                        row.append(rng.randint(0, 3))
                rows.add(tuple(row))
            db.add(Relation(atom.relation, atom.variable_names, rows))
        result = forward_reduce(q, db)
        delta = db.insert("U", (1, 99))  # point-only atom
        result.apply_delta(delta)
        fresh = forward_reduce(q, db)
        for rel in fresh.database.relation_names:
            assert result.database[rel].tuples == fresh.database[rel].tuples

    def test_evaluation_agrees_after_patch(self):
        rng = random.Random(7)
        q = parse_query(TRIANGLE)
        db = _random_db(q, rng, n=12)
        result = forward_reduce(q, db)
        for _ in range(6):
            t = _in_domain_tuple(result, "R", rng)
            delta = db.insert("R", t) or db.delete("R", t)
            result.apply_delta(delta)
            assert evaluate_disjunction(result) == naive_evaluate(q, db)

    def test_out_of_domain_insert_raises_domain_changed(self):
        q = parse_query(TRIANGLE)
        db = _random_db(q, random.Random(1))
        result = forward_reduce(q, db)
        delta = db.insert("R", (iv(-500.5, -499.5), iv(0, 1)))
        with pytest.raises(DomainChanged):
            result.apply_delta(delta)

    def test_whole_relation_deltas_raise(self):
        q = parse_query(TRIANGLE)
        db = _random_db(q, random.Random(2))
        result = forward_reduce(q, db)
        delta = db.replace(Relation("R", ("A", "B"), []))
        with pytest.raises(DomainChanged):
            result.apply_delta(delta)

    def test_unreferenced_relation_is_a_noop(self):
        q = parse_query(TRIANGLE)
        db = _random_db(q, random.Random(4))
        db.add(Relation("Z", ("A",), [(iv(0, 1),)]))
        result = forward_reduce(q, db)
        sizes = {
            name: len(result.database[name])
            for name in result.database.relation_names
        }
        result.apply_delta(db.insert("Z", (iv(5, 6),)))
        assert sizes == {
            name: len(result.database[name])
            for name in result.database.relation_names
        }


# ----------------------------------------------------------------------
# the array-native patch path: columnar variants stay columnar
# ----------------------------------------------------------------------


def _variant_view(result, by_source_tuple=False):
    """variant name -> {derived row: refcount}, for an array artifact
    or a row-backed oracle result alike.  Also checks the relation's
    stored rows are exactly the refcounted rows.  With
    ``by_source_tuple`` a trailing provenance id is replaced by the
    source tuple it names, so artifacts that number tuples differently
    compare equal."""
    view = {}
    for name, counts in result.variant_counts.items():
        rows = dict(counts.items())
        relation = result.database[name]
        block = relation.columnar
        stored = block.rows() if block is not None else relation.tuples
        assert len(stored) == len(rows), name
        assert set(stored) == set(rows), name
        if by_source_tuple and relation.schema[-1].startswith("__id_"):
            label = relation.schema[-1][len("__id_"):]
            order = result.tuple_order[label]
            rows = {
                row[:-1] + (order[row[-1]],): count
                for row, count in rows.items()
            }
        view[name] = rows
    return view


def _assert_columnar(result):
    """Every relation still holds its block over the artifact's one
    codebook, its refcounts are still the array parallel to that very
    block, every block's rows are distinct, and every block a patch has
    replaced (``version > 0``) is lexicographically sorted: ``adjust``
    sorts a block the first time it patches it and keeps it sorted."""
    assert set(result.variant_counts) == set(result.database.relation_names)
    for name, counts in result.variant_counts.items():
        block = result.database[name].columnar
        assert block is not None, name
        assert block.book is result.codebook, name
        assert isinstance(counts, ColumnarCounts), name
        assert counts.block is block, name
        assert counts.array.shape == (block.row_count,), name
        assert (np.asarray(counts.array) > 0).all(), name
        codes = np.asarray(block.codes)
        assert len(np.unique(codes, axis=0)) == len(codes), name
        assert block.version == 0 or _is_sorted(codes), name


def _is_sorted(codes):
    codes = np.asarray(codes)
    return (codes[np.lexsort(codes.T[::-1])] == codes).all()


def _frame_kinds(frame):
    """Per stored relation, what holds its rows: a code-matrix blob."""
    meta, _ = _parse_frame(frame, FORMAT_VERSION)
    return {
        entry["name"]: "columnar" if type(entry["codes"]) is int else "rows"
        for entry in meta["relations"]
    }


def _same_domains(a, b):
    return {x: t.endpoints for x, t in a.segment_trees.items()} == {
        x: t.endpoints for x, t in b.segment_trees.items()
    }


def deserialize_bytes(frame):
    """A frame loaded the way the cache loads it: through a read-only
    mapped file, so every array is an unwritable view."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "entry.red"
        path.write_bytes(frame)
        result = load_result(path, FORMAT_VERSION)
    assert result is not None
    return result


class TestArrayNativePatch:
    @pytest.mark.parametrize("index", range(SCENARIOS))
    def test_fuzz_sequences_match_reference_and_fresh(self, index):
        """(a) + (b) on the fuzz-seed matrix: the same insert/delete
        sequence patched into an artifact's arrays and into the naive
        reduction's rows (``oracles.reduction``: per-tuple transform,
        dict/set patcher) gives the same rows and refcounts per
        variant after every delta, and — while
        the endpoint domains still equal a fresh reduction's — the same
        as reducing the mutated database from scratch.  Every variant
        stays columnar through every patch and through a
        serialize/load round trip."""
        seed = scenario_seed(index)
        rng = random.Random(seed)
        queries = random_queries(rng)
        db, _ = build_database(rng, queries)
        patched_any = False
        for query in queries:
            for disjoint, provenance in ((False, False), (True, True)):
                columnar = forward_reduce(query, db, disjoint, provenance)
                reference = naive_forward_reduce(
                    query, db, disjoint, provenance
                )
                mutated = db.clone()
                # two rounds: the second re-inserts what the first
                # deleted and deletes what it inserted
                deltas = _patchable_deltas(
                    random.Random(seed + 1), query, db, reference
                )
                undo = [
                    Delta(
                        d.version + 500,
                        "delete" if d.kind == "insert" else "insert",
                        d.relation,
                        d.tuple,
                    )
                    for d in reversed(deltas)
                ]
                for delta in deltas + undo:
                    try:
                        apply_delta_rows(reference, delta)
                    except DomainChanged:
                        continue
                    columnar.apply_delta(delta)
                    mutated.apply_delta(delta)
                    patched_any = True
                    _assert_columnar(columnar)
                    assert _variant_view(columnar) == _variant_view(
                        reference
                    ), (seed, query, delta)
                    assert columnar.tuple_order == reference.tuple_order
                    fresh = forward_reduce(
                        query, mutated, disjoint, provenance
                    )
                    if _same_domains(fresh, columnar):
                        assert _variant_view(
                            columnar, by_source_tuple=True
                        ) == _variant_view(fresh, by_source_tuple=True), (
                            seed,
                            query,
                            delta,
                        )
                    frame = serialize_result(columnar, FORMAT_VERSION)
                    kinds = _frame_kinds(frame)
                    for name in columnar.variant_counts:
                        assert kinds[name] == "columnar", (name, delta)
                    loaded = deserialize_bytes(frame)
                    assert _variant_view(loaded) == _variant_view(columnar)
        assert patched_any, f"seed={seed}: no delta patch exercised"

    def test_shared_rows_refcount_above_one_delete_to_zero_reinsert(self):
        """Two input tuples deriving the same row: the refcount is 2,
        deleting one keeps the row at 1, deleting the other removes it
        from the matrix, re-inserting brings it back — all on arrays."""
        q = parse_query("R([A]) \u2227 S([A])")
        db = Database(
            [
                Relation("R", ("A",), [(iv(0, 1),), (iv(0, 3),)]),
                Relation("S", ("A",), [(iv(0, 8),), (iv(2, 5),)]),
            ]
        )
        result = forward_reduce(q, db)
        shared = {
            (name, row)
            for name, rows in _variant_view(result).items()
            if name.startswith("R~")
            for row, count in rows.items()
            if count >= 2
        }
        assert shared, "instance must actually share derived rows"
        result.apply_delta(db.delete("R", (iv(0, 1),)))
        _assert_columnar(result)
        view = _variant_view(result)
        assert all(view[name][row] == 1 for name, row in shared)
        assert evaluate_disjunction(result) == naive_evaluate(q, db)
        result.apply_delta(db.delete("R", (iv(0, 3),)))
        _assert_columnar(result)
        view = _variant_view(result)
        assert all(row not in view[name] for name, row in shared)
        assert all(not view[name] for name in view if name.startswith("R~"))
        result.apply_delta(db.insert("R", (iv(0, 3),)))
        result.apply_delta(db.insert("R", (iv(0, 1),)))
        _assert_columnar(result)
        assert _variant_view(result) == _variant_view(
            naive_forward_reduce(q, db)
        )
        assert evaluate_disjunction(result) == naive_evaluate(q, db)

    @pytest.mark.parametrize("provenance", [False, True])
    def test_self_join_atoms_share_one_tuple_order(self, provenance):
        """Both atoms of ``R ⋈ R`` index one provenance list: an insert
        appends to it once and patches every variant of both atoms; a
        delete leaves one ``None`` sentinel."""
        q = parse_query("R([A],[B]) \u2227 R([B],[C])")
        rng = random.Random(21)

        def interval():
            lo = rng.randint(0, 8)
            return iv(lo, lo + rng.randint(0, 4))

        db = Database(
            [
                Relation(
                    "R", ("A", "B"), {(interval(), interval()) for _ in range(8)}
                )
            ]
        )
        columnar = forward_reduce(q, db, provenance, provenance)
        reference = naive_forward_reduce(q, db, provenance, provenance)
        assert columnar.tuple_order["R"] is columnar.tuple_order["R#2"]
        before = len(columnar.tuple_order["R"])
        inserted = []
        for _ in range(4):
            # column 0 feeds [A] and [B], column 1 feeds [B] and [C]
            t = tuple(
                iv(*sorted(rng.sample(sorted(tree.endpoints), 2)))
                for tree in (
                    columnar.segment_trees["A"],
                    columnar.segment_trees["C"],
                )
            )
            delta = db.insert("R", t)
            if delta is None:
                continue
            inserted.append(t)
            apply_delta_rows(reference, delta)
            columnar.apply_delta(delta)
            _assert_columnar(columnar)
            assert _variant_view(columnar) == _variant_view(reference)
        assert len(columnar.tuple_order["R"]) == before + len(inserted)
        victims = inserted[:1] + sorted(db["R"].tuples - set(inserted), key=repr)[:2]
        for t in victims:
            delta = db.delete("R", t)
            apply_delta_rows(reference, delta)
            columnar.apply_delta(delta)
            _assert_columnar(columnar)
            assert _variant_view(columnar) == _variant_view(reference)
            assert evaluate_disjunction(columnar) == naive_evaluate(q, db)
        assert columnar.tuple_order["R"].count(None) == len(victims)
        assert columnar.tuple_order == reference.tuple_order

    def test_new_point_values_grow_the_codebook(self):
        q = parse_query("R([A], P) \u2227 S([A], P)")
        db = Database(
            [
                Relation("R", ("A", "P"), [(iv(0, 2), 1), (iv(1, 3), 2)]),
                Relation("S", ("A", "P"), [(iv(0, 3), 1), (iv(2, 3), 2)]),
            ]
        )
        columnar = forward_reduce(q, db)
        reference = naive_forward_reduce(q, db)
        book = columnar.codebook
        size = len(book)
        assert book.lookup(99) is None
        for name in ("R", "S"):
            delta = db.insert(name, (iv(0, 3), 99))
            apply_delta_rows(reference, delta)
            columnar.apply_delta(delta)
        assert len(book) > size and book.lookup(99) is not None
        _assert_columnar(columnar)
        assert _variant_view(columnar) == _variant_view(reference)
        assert evaluate_disjunction(columnar) is True
        assert naive_evaluate(q, db) is True

    @pytest.mark.parametrize("loaded", [False, True])
    def test_delete_only_sequences_never_grow_the_codebook(self, loaded):
        """A delete looks codes up without interning: a value the book
        has never seen proves the row absent.  (Regression: the decode-
        and-mutate route re-interned every part of every deleted
        tuple into the book all later puts re-serialize.)  Interval
        parts are node ids and never touch the book either way; the
        loaded case starts with empty tree memos."""
        q = parse_query("R([A], P) \u2227 S([A],[B]) \u2227 T([B], P)")
        rng = random.Random(17)
        db = Database()
        for atom in q.atoms:
            rows = set()
            while len(rows) < 10:
                rows.add(
                    tuple(
                        iv(lo := rng.randint(0, 9), lo + rng.randint(0, 3))
                        if v.is_interval
                        else rng.randint(0, 2)
                        for v in atom.variables
                    )
                )
            db.add(Relation(atom.relation, atom.variable_names, rows))
        result = forward_reduce(q, db)
        if loaded:
            result = deserialize_bytes(
                serialize_result(result, FORMAT_VERSION)
            )
        reference = naive_forward_reduce(q, db)
        book = result.codebook
        size = len(book)
        for name in ("R", "S", "T", "S", "R"):
            victim = sorted(db[name].tuples, key=repr)[0]
            delta = db.delete(name, victim)
            apply_delta_rows(reference, delta)
            result.apply_delta(delta)
            assert len(book) == size, (name, victim)
            assert _variant_view(result) == _variant_view(reference)
        _assert_columnar(result)
        # values the artifact has never seen encode to *no* rows under
        # lookup (and are interned only when inserting)
        atom = result.original.atoms[0]
        spec = result.atom_variants[atom.label][0]
        ghost = (iv(0, 9), 77)
        assert book.lookup(77) is None
        looked_up = result.tuple_rows(atom, spec, ghost, 0, intern=False)
        assert looked_up.shape[0] == 0 and len(book) == size
        interned = result.tuple_rows(atom, spec, ghost, 0, intern=True)
        assert interned.shape[0] > 0 and book.lookup(77) is not None
        assert all(type(v) is int for v in book.values)  # points only

    def test_patched_frame_is_no_larger_than_a_fresh_reductions(self):
        """(b): after an insert-only in-domain sequence the patched
        artifact serializes to (almost exactly) the bytes a fresh
        reduction of the mutated database would — blobs, not JSON rows."""
        rng = random.Random(5)
        q = parse_query(TRIANGLE)
        db = _random_db(q, rng)
        result = forward_reduce(q, db)
        for name in ("R", "S", "T", "R", "S", "T"):
            t = _in_domain_tuple(result, name, rng)
            delta = db.insert(name, t)
            if delta is not None:
                result.apply_delta(delta)
        fresh = forward_reduce(q, db)
        assert _same_domains(fresh, result)
        patched_frame = serialize_result(result, FORMAT_VERSION)
        fresh_frame = serialize_result(fresh, FORMAT_VERSION)
        assert set(_frame_kinds(patched_frame).values()) == {"columnar"}
        # same rows, same values: only alignment / offset digits differ
        assert len(patched_frame) <= len(fresh_frame) + 64

    def test_memmap_loaded_artifact_patches_copy_on_write(self, tmp_path):
        """(c): patching an artifact whose arrays are read-only views
        of a mapped cache entry never writes the file — the old key
        still validates and loads the old content, and the new key
        loads the patched content."""
        rng = random.Random(8)
        q = parse_query(TRIANGLE)
        db = _random_db(q, rng, n=15)
        cache = ReductionCache(tmp_path)
        old_key = reduction_key(q, database_digests(db))
        cache.put(old_key, forward_reduce(q, db))
        path = cache._path(old_key)
        before = path.read_bytes()
        loaded = cache.get(old_key)
        original = _variant_view(loaded)
        for counts in loaded.variant_counts.values():
            assert not counts.array.flags.writeable
            assert not counts.block.codes.flags.writeable
        reference = naive_forward_reduce(q, db)
        inserted = []
        for name in ("R", "S", "T", "R"):
            t = _in_domain_tuple(loaded, name, rng)
            delta = db.insert(name, t)
            if delta is None:
                continue
            inserted.append((name, t))
            apply_delta_rows(reference, delta)
            loaded.apply_delta(delta)
        for name, t in inserted[:2]:
            delta = db.delete(name, t)
            apply_delta_rows(reference, delta)
            loaded.apply_delta(delta)
        victim = sorted(db["S"].tuples, key=repr)[0]
        delta = db.delete("S", victim)
        apply_delta_rows(reference, delta)
        loaded.apply_delta(delta)
        _assert_columnar(loaded)
        patched = _variant_view(loaded)
        assert patched == _variant_view(reference)
        assert patched != original
        # the mapped entry: byte-identical, still valid, still the old content
        assert path.read_bytes() == before
        assert validate_entry_bytes(before, FORMAT_VERSION)
        assert _variant_view(cache.get(old_key)) == original
        new_key = reduction_key(q, database_digests(db))
        assert new_key != old_key
        cache.put(new_key, loaded)
        assert path.read_bytes() == before
        reloaded = cache.get(new_key)
        assert _variant_view(reloaded) == patched
        assert reloaded.tuple_order == loaded.tuple_order
        assert evaluate_disjunction(reloaded) == naive_evaluate(q, db)

    def test_replace_rows_resets_the_decoded_row_memo(self):
        """A patched block must never serve the previous matrix's
        decoded rows (``rows()`` is what ``result_digest`` reads)."""
        q = parse_query("R([A]) \u2227 S([A])")
        db = Database(
            [
                Relation("R", ("A",), [(iv(0, 1),), (iv(2, 3),)]),
                Relation("S", ("A",), [(iv(0, 3),)]),
            ]
        )
        result = forward_reduce(q, db)
        name = next(n for n in result.variant_counts if n.startswith("R~"))
        block = result.database[name].columnar
        stale = list(block.rows())  # memoize the decoded rows
        result.apply_delta(db.insert("R", (iv(0, 3),)))
        assert result.database[name].columnar is block
        assert len(block.rows()) > len(stale)
        assert set(block.rows()) == set(
            naive_forward_reduce(q, db).database[name].tuples
        )
        with pytest.raises(ValueError):
            block.replace_rows(np.zeros((1, block.width + 1), CODE_DTYPE))

    def test_adjust_sorts_an_unsorted_read_only_block_into_new_arrays(self):
        """``adjust`` on a block in no order, whose arrays are read-only:
        every insert/delete matches a ``Counter`` of the rows, the
        original arrays are never written, and the block ends sorted."""
        rng = np.random.default_rng(3)
        rows = np.unique(rng.integers(0, 6, (40, 3), dtype=CODE_DTYPE), axis=0)
        rng.shuffle(rows)
        assert not _is_sorted(rows)
        codes, array = rows.copy(), np.ones(len(rows), COUNT_DTYPE)
        codes.setflags(write=False)
        array.setflags(write=False)
        block = ColumnBlock(codes, (COL_CODE,) * 3, CodeBook(range(8)))
        counts = ColumnarCounts(block, array)
        reference = Counter(map(tuple, rows.tolist()))
        for index, step in enumerate((-1, 1, 1, -1, -1, 1, 1)):
            if index == 6:
                # rows replaced behind adjust's back are checked again
                shuffle = rng.permutation(block.row_count)
                block.replace_rows(block.codes[shuffle])
                counts.array = counts.array[shuffle]
                assert not _is_sorted(block.codes)
            # distinct rows, some in the block and some not
            batch = np.unique(rng.integers(0, 8, (12, 3), dtype=CODE_DTYPE), axis=0)
            batch = np.concatenate([batch, rows[rng.choice(len(rows), 5)]])
            batch = np.unique(batch, axis=0)
            rng.shuffle(batch)
            counts.adjust(batch, step)
            for row in map(tuple, batch.tolist()):
                if step > 0 or row in reference:
                    reference[row] += step
            reference = +reference
            got = dict(zip(map(tuple, block.codes.tolist()), counts.array.tolist()))
            assert got == dict(reference)
            assert _is_sorted(block.codes)
        assert np.array_equal(codes, rows) and (array == 1).all()

    @pytest.mark.parametrize("loaded", [False, True])
    def test_adjust_sorts_provenance_blocks_on_their_first_patch(
        self, loaded, tmp_path
    ):
        """A provenance variant is built in source-tuple order, not
        sorted.  Patching a fresh artifact, or one loaded read-only and
        memmapped through ``load_result``, matches the row patcher after
        every insert and delete, leaves the mapped file's bytes as they
        were, and leaves every touched block sorted."""
        rng = random.Random(31)
        q = parse_query(TRIANGLE)
        db = _random_db(q, rng, n=15)
        result = forward_reduce(q, db, True, True)
        assert any(
            not _is_sorted(counts.block.codes)
            for counts in result.variant_counts.values()
        )
        path = tmp_path / "entry.red"
        path.write_bytes(serialize_result(result, FORMAT_VERSION))
        before = path.read_bytes()
        if loaded:
            result = load_result(path, FORMAT_VERSION)
            for counts in result.variant_counts.values():
                assert not counts.block.codes.flags.writeable
                assert not counts.array.flags.writeable
        reference = naive_forward_reduce(q, db, True, True)
        touched, inserted = set(), []

        def apply(delta):
            apply_delta_rows(reference, delta)
            result.apply_delta(delta)
            atoms = [a for a in q.atoms if a.relation == delta.relation]
            touched.update(
                spec.name() for a in atoms for spec in result.atom_variants[a.label]
            )
            _assert_columnar(result)
            assert _variant_view(result) == _variant_view(reference)

        for name in ("R", "S", "T", "R", "S"):
            t = _in_domain_tuple(result, name, rng)
            delta = db.insert(name, t)
            if delta is not None:
                inserted.append((name, t))
                apply(delta)
        victims = inserted[:2] + [("T", sorted(db["T"].tuples, key=repr)[0])]
        for name, t in victims:
            apply(db.delete(name, t))
        assert touched
        for name in touched:
            block = result.variant_counts[name].block
            assert block.version > 0 and _is_sorted(block.codes), name
        assert evaluate_disjunction(result) == naive_evaluate(q, db)
        assert path.read_bytes() == before




# ----------------------------------------------------------------------
# the session: patch instead of rebuild
# ----------------------------------------------------------------------


class TestSessionDeltaMaintenance:
    def warm_session(self, seed=7, n=30, **kwargs):
        q = parse_query(TRIANGLE)
        db = random_database(q, n, seed=seed)
        session = QuerySession(db, **kwargs)
        session.evaluate(q, strategy="reduction")
        return q, db, session

    def in_domain_tuple(self, session, q, rng=None):
        rng = rng or random.Random(0)
        result = session._reductions[
            next(iter(session._reductions))
        ][0]
        return _in_domain_tuple(result, "R", rng)

    def test_in_domain_insert_patches_without_reducing(self):
        """The acceptance criterion: a warm session absorbs an
        in-domain single-tuple insert with zero forward reductions."""
        q, db, session = self.warm_session()
        before = session.stats.reductions
        t = self.in_domain_tuple(session, q)
        assert db.insert("R", t) is not None
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.stats.reductions == before, session.stats.as_dict()
        assert session.stats.delta_patches > 0, session.stats.as_dict()

    def test_in_domain_delete_patches_without_reducing(self):
        q, db, session = self.warm_session()
        victim = next(iter(db["R"].tuples))
        before = session.stats.reductions
        assert db.delete("R", victim) is not None
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.count(q) == naive_count(q, db)
        # the count reads the same patched artifact
        assert session.stats.reductions == before
        assert session.stats.delta_patches > 0

    def test_out_of_domain_insert_falls_back_to_rebuild(self):
        q, db, session = self.warm_session()
        before = session.stats.reductions
        db.insert("R", (iv(-9999.5, -9998.5), iv(-9999.5, -9998.5)))
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.stats.reductions == before + 1

    def test_a_step_that_fails_part_way_counts_no_patch(self):
        """An in-domain insert and an out-of-domain one in one step: the
        first applies, the second raises, and the artifact is dropped
        and rebuilt — so the step patched nothing."""
        q, db, session = self.warm_session()
        before = session.stats.as_dict()
        assert db.insert("R", self.in_domain_tuple(session, q)) is not None
        assert db.insert("R", (iv(-9999.5, -9998.5), iv(-9999.5, -9998.5)))
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.count(q) == naive_count(q, db)
        assert session.stats.delta_patches == before["delta_patches"]
        assert session.stats.reductions == before["reductions"] + 1

    def test_direct_mutation_bypassing_the_log_rebuilds(self):
        q, db, session = self.warm_session()
        before = session.stats.reductions
        t = self.in_domain_tuple(session, q)
        db["R"].tuples.add(t)  # no delta logged
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.stats.reductions == before + 1
        assert session.stats.delta_patches == 0

    def test_a_domain_change_is_counted_as_the_rebuild_reason(self):
        q, db, session = self.warm_session()
        assert db.insert("R", self.in_domain_tuple(session, q)) is not None
        session.evaluate(q, strategy="reduction")  # patched: no reason
        assert (session.stats.domain_changed, session.stats.unpatched) == (0, 0)
        db.insert("R", (iv(-9999.5, -9998.5), iv(-9999.5, -9998.5)))
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(q, db)
        stats = session.stats.as_dict()
        assert (stats["domain_changed"], stats["unpatched"]) == (1, 0), stats

    def test_an_uncovered_version_gap_is_counted_as_the_rebuild_reason(self):
        q, db, session = self.warm_session()
        db["R"].tuples.add(self.in_domain_tuple(session, q))  # no delta logged
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(q, db)
        stats = session.stats.as_dict()
        assert (stats["domain_changed"], stats["unpatched"]) == (0, 1), stats
        assert stats["reductions"] == 2 and stats["delta_patches"] == 0

    def test_mixed_logged_and_direct_mutation_rebuilds(self):
        """The stamp algebra must catch a logged insert *plus* a direct
        unlogged mutation of the same relation between two reads."""
        q, db, session = self.warm_session()
        before = session.stats.reductions
        t = self.in_domain_tuple(session, q)
        assert db.insert("R", t) is not None
        direct = self.in_domain_tuple(session, q, random.Random(99))
        db["R"].tuples.discard(direct)  # may or may not be present
        db["R"].tuples.add((iv(0.25, 0.75), iv(0.25, 0.75)))
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.stats.reductions == before + 1
        assert session.stats.delta_patches == 0

    def test_untouched_queries_stay_warm_while_others_patch(self):
        q = parse_query(TRIANGLE)
        other = parse_query("Qo := U([X],[Y]) ∧ V([Y],[Z])")
        db = random_database(q, 20, seed=3)
        for relation in random_database(other, 10, seed=4):
            db.add(relation)
        session = QuerySession(db)
        session.evaluate(q, strategy="reduction")
        session.evaluate(other, strategy="reduction")
        # patch the triangle's R; the other query's artifacts survive
        result = next(
            entry[0]
            for entry in session._reductions.values()
            if "R" in entry[1]
        )
        t = _in_domain_tuple(result, "R", random.Random(0))
        assert db.insert("R", t) is not None
        hits_before = session.stats.hits
        assert session.evaluate(other, strategy="reduction") == (
            naive_evaluate(other, db)
        )
        assert session.stats.hits == hits_before + 1  # served from cache

    def test_answers_for_touched_queries_drop_but_reduction_survives(self):
        q, db, session = self.warm_session()
        misses = session.stats.misses
        t = self.in_domain_tuple(session, q)
        assert db.insert("R", t) is not None
        session.evaluate(q, strategy="reduction")
        # the answer was recomputed (cache dropped) over the patched
        # reduction (no new reduction)
        assert session.stats.misses == misses + 1

    def test_patched_reduction_is_persisted_for_restarts(self, tmp_path):
        q, db, session = self.warm_session(cache_dir=tmp_path)
        t = self.in_domain_tuple(session, q)
        assert db.insert("R", t) is not None
        answer = session.evaluate(q, strategy="reduction")
        warm = QuerySession(db, cache_dir=tmp_path)
        assert warm.evaluate(q, strategy="reduction") == answer
        assert warm.stats.reductions == 0, warm.stats.as_dict()
        assert warm.stats.persistent_hits >= 1

    def test_patched_reduction_repersists_columnar(self, tmp_path):
        """A patch followed by the session's re-persist stores blobs,
        and a restarted session loads every variant block-backed."""
        q = parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([C],[D])")
        db = random_database(q, 30, seed=7)
        session = QuerySession(db, cache_dir=tmp_path)
        session.evaluate(q, strategy="reduction")
        t = self.in_domain_tuple(session, q)
        assert db.insert("R", t) is not None
        assert session.evaluate(q, strategy="reduction") == naive_evaluate(
            q, db
        )
        assert session.stats.delta_patches > 0
        warm = QuerySession(db, cache_dir=tmp_path)
        result = warm._reduction(warm._canonical(q))
        assert warm.stats.persistent_hits == 1 and warm.stats.reductions == 0
        _assert_columnar(result)

    def test_cyclic_query_patches_stay_columnar(self, tmp_path):
        """Mutate -> read xN on the triangle: its cyclic disjuncts
        materialise their bags on the code arrays, so evaluation never
        decodes a variant and every patch stays in array space."""
        q, db, session = self.warm_session(cache_dir=tmp_path)
        added = [
            self.in_domain_tuple(session, q, random.Random(step))
            for step in range(4)
        ]
        for mutate in (db.insert, db.delete):
            for t in added:
                assert mutate("R", t) is not None
                assert session.evaluate(
                    q, strategy="reduction"
                ) == naive_evaluate(q, db)
        assert session.stats.delta_patches > 0
        assert session.stats.reductions == 1
        warm = QuerySession(db, cache_dir=tmp_path)
        result = warm._reduction(warm._canonical(q))
        assert warm.stats.persistent_hits == 1 and warm.stats.reductions == 0
        _assert_columnar(result)
        # a patch is persisted as the change: seven delta frames chained
        # to the one full frame (the last delete arrived back at that
        # frame's address, which is kept), and it holds blobs, not rows
        metas = [
            _parse_frame(entry.read_bytes(), FORMAT_VERSION)[0]
            for entry in warm.cache._entry_paths()
        ]
        full = [meta for meta in metas if "kind" not in meta]
        assert {meta["kind"] for meta in metas if meta not in full} == {"delta"}
        assert len(full) == 1 and len(metas) == 8
        for meta in full:
            assert {type(entry["codes"]) for entry in meta["relations"]} == {int}
        stats = session.cache.stats()
        assert stats["delta_stores"] == len(metas) - len(full)
        assert stats["skipped_stores"] == 1

    def test_many_interleaved_api_mutations_stay_correct(self):
        rng = random.Random(13)
        q = parse_query(TRIANGLE)
        db = random_database(q, 15, seed=6)
        session = QuerySession(db)
        session.evaluate(q, strategy="reduction")  # warm the reduction
        inserted: list[tuple[str, tuple]] = []
        for step in range(12):
            name = rng.choice(["R", "S", "T"])
            if inserted and rng.random() < 0.4:
                name, t = inserted.pop(rng.randrange(len(inserted)))
                db.delete(name, t)
            else:
                result = session._reductions[
                    next(iter(session._reductions))
                ][0]
                t = _in_domain_tuple(result, name, rng)
                if db.insert(name, t) is not None:
                    inserted.append((name, t))
            assert session.evaluate(
                q, strategy="reduction"
            ) == naive_evaluate(q, db), step
            assert session.count(q) == naive_count(q, db), step
        assert session.stats.delta_patches > 0


# ----------------------------------------------------------------------
# persistent-cache hygiene: prune under a byte cap
# ----------------------------------------------------------------------


class TestPrune:
    def fill(self, cache, n=4):
        q = parse_query("R([A],[B]) ∧ S([B],[C])")
        keys = []
        for seed in range(n):
            db = random_database(q, 6, seed=seed)
            key = reduction_key(q, database_digests(db))
            cache.put(key, forward_reduce(q, db))
            keys.append(key)
        return keys

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        import os
        import time

        cache = ReductionCache(tmp_path)
        keys = self.fill(cache)
        # age the first two entries, then touch the first via a hit
        now = time.time()
        for i, key in enumerate(keys):
            os.utime(cache._path(key), (now - 100 + i, now - 100 + i))
        assert cache.get(keys[0]) is not None  # refreshes its mtime
        per_entry = cache.size_bytes() // len(keys)
        removed = cache.prune(cache.size_bytes() - per_entry)
        assert removed >= 1
        assert cache.get(keys[0]) is not None  # recently used: kept
        assert cache.get(keys[1]) is None  # oldest untouched: evicted
        assert cache.stats()["pruned"] == removed

    def test_prune_to_zero_clears_the_store(self, tmp_path):
        cache = ReductionCache(tmp_path)
        self.fill(cache, n=2)
        cache.prune(0)
        assert len(cache) == 0
        assert cache.size_bytes() == 0

    def test_max_bytes_auto_prunes_on_put(self, tmp_path):
        probe = ReductionCache(tmp_path / "probe")
        self.fill(probe, n=1)
        per_entry = probe.size_bytes()
        cache = ReductionCache(
            tmp_path / "capped", max_bytes=int(per_entry * 2.5)
        )
        self.fill(cache, n=4)
        assert cache.size_bytes() <= per_entry * 2.5
        assert len(cache) < 4
        assert cache.stats()["pruned"] >= 1

    def test_session_wires_the_cap_through(self, tmp_path):
        q = parse_query(TRIANGLE)
        db = random_database(q, 8, seed=1)
        session = QuerySession(
            db, cache_dir=tmp_path, cache_max_bytes=10_000_000
        )
        session.evaluate(q, strategy="reduction")
        assert session.cache.max_bytes == 10_000_000
        assert len(session.cache) >= 1

    def test_negative_cap_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ReductionCache(tmp_path, max_bytes=-1)


class TestCacheMaxBytesCLI:
    def test_flag_requires_cache_dir(self, capsys):
        code = cli_main(
            ["evaluate", "R([A],[B])", "--cache-max-bytes", "1000"]
        )
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_flag_caps_the_directory(self, tmp_path, capsys):
        code = cli_main(
            [
                "evaluate",
                "R([A],[B]) ∧ S([B],[C])",
                "--n",
                "6",
                "--cache-dir",
                str(tmp_path),
                "--cache-max-bytes",
                "200000000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned" in out
