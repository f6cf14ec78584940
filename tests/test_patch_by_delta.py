"""A patched read redoes only what its delta touched.

* **Digest by delta** — ``relation_digest`` re-encodes only the tuple
  objects it did not hold at the relation's last digest, and its bytes
  stay those of a fresh relation after any mix of logged, direct and
  whole-relation mutations; an equal but distinct value swapped in place
  (``(1,)`` / ``(1.0,)`` / ``(True,)``, ``Interval(1, 2)`` /
  ``Interval(1.0, 2.0)``, ``2**53`` / ``2.0**53``) is encoded afresh.
* **The change log by slice** — ``changes_since`` answers what the old
  scan answered, across the ``CHANGE_LOG_MAX`` trim and at its edges.
* **A patch kernel that keeps its keys** — ``ColumnarCounts.adjust``
  with its key memo patches fresh, memmap-loaded and chain-loaded
  artifacts bit-identically to the memo-less path, answering like a
  fresh reduction and the naive oracle; each fallback is forced.
* **Re-ranking from cardinalities** — a disjunct's α-acyclicity is
  computed once per disjunct object and survives ``apply_delta``.
* **Each unpatched rebuild with its cause**, and each shard directory
  created once per cache.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import math
import os
import random
import shutil
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_delta_maintenance import _in_domain_tuple, _is_sorted
from test_warm_load import _recombined

from repro.core import QuerySession, ReductionCache, naive_count, naive_evaluate
from repro.core import reduction_cache
from repro.core.cache_format import load_result, serialize_result
from repro.core.disjunct_eval import (
    count_disjunction,
    evaluate_disjunction,
    evaluation_order,
)
from repro.core.reduction_cache import (
    FORMAT_VERSION,
    relation_digest,
    result_digest,
)
from repro.core.session import SessionStats
from repro.engine import Database, Relation
from repro.engine.statistics import rank_order
from repro.hypergraph.acyclicity import is_alpha_acyclic
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.queries import query as query_module
from repro.reduction import forward, forward_reduce, shift_distinct_left
from repro.reduction.columnar import (
    CODE_DTYPE,
    COL_BITS,
    COL_CODE,
    COL_ID,
    COUNT_DTYPE,
    KEY_LIMIT,
    CodeBook,
    ColumnarCounts,
    ColumnBlock,
)
from repro.service.pool import WorkerPool
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

TRIANGLE = catalog.triangle_ij()


def _fresh_digest(relation: Relation) -> str:
    """The digest of a new relation holding the same tuples: no memo."""
    return relation_digest(Relation(relation.name, relation.schema, relation.tuples))


def _memo_holds_only_live_tuples(relation: Relation) -> bool:
    live = {id(t): t for t in relation.tuples}
    return relation._encoded.keys() == live.keys() and all(
        entry[0] is live[key] for key, entry in relation._encoded.items()
    )


# ----------------------------------------------------------------------
# (a) digest by delta
# ----------------------------------------------------------------------


def _value(rng):
    return rng.choice(
        [
            rng.randint(-3, 3),
            float(rng.randint(-3, 3)),
            rng.choice([True, False]),
            rng.choice(["a", "b,", "c\n"]),
            Interval(lo := rng.randint(0, 4), lo + rng.choice([0, 1, 2.5])),
            rng.choice([2**53, -(2**53), 2**53 + 1, 2.0**53, -(2.0**53)]),
        ]
    )


@pytest.mark.parametrize("seed", range(4))
def test_the_digest_after_any_mutation_mix_is_a_fresh_relations(seed, monkeypatch):
    rng = random.Random(seed + 101 + FUZZ_SEED)
    db = Database([Relation("R", ("A", "B"), [(_value(rng), _value(rng)) for _ in range(6)])])
    encoded = []
    encode = reduction_cache.encode_value

    def counted(value):
        encoded.append(value)
        return encode(value)

    relation_digest(db["R"])
    for _ in range(60):
        relation = db["R"]
        step = rng.choice(["insert", "delete", "add", "discard", "assign", "replace"])
        rows = sorted(relation.tuples, key=repr)
        t = (_value(rng), _value(rng))
        if step == "insert":
            db.insert("R", t)
        elif step == "delete" and rows:
            db.delete("R", rng.choice(rows))
        elif step == "add":
            relation.tuples.add(t)
        elif step == "discard" and rows:
            relation.tuples.discard(rng.choice(rows))
        elif step == "assign":
            relation.tuples = set(rows[1:]) | {t}
        elif step == "replace":
            db.replace(Relation("R", ("A", "B"), rows + [t]))
        relation = db["R"]
        known = relation._encoded or {}  # a replaced relation has none
        monkeypatch.setattr(reduction_cache, "encode_value", counted)
        encoded.clear()
        digest = relation_digest(relation)
        monkeypatch.setattr(reduction_cache, "encode_value", encode)
        assert digest == _fresh_digest(relation), step
        assert _memo_holds_only_live_tuples(relation)
        # only the tuple objects the last digest did not hold are encoded
        new = [id(t) for t in relation.tuples if id(t) not in known]
        live = {id(t) for t in relation.tuples}
        assert sorted(id(v) for v in encoded if id(v) in live) == sorted(new), step


@pytest.mark.parametrize(
    "values",
    [
        [(1,), (1.0,), (True,)],
        [(Interval(1, 2),), (Interval(1.0, 2.0),)],
        [(2**53,), (2.0**53,)],
        [(-(2**53),), (-(2.0**53),)],
    ],
    ids=["one", "interval", "plus_2_53", "minus_2_53"],
)
def test_an_equal_value_swapped_in_place_is_encoded_afresh(values):
    """Every value of ``values`` is equal to the others and hashes
    alike, so a set swap keeps the set "the same" — yet each gives a
    distinct digest, the one a fresh relation gives."""
    assert len(set(values)) == 1
    for swap in ("direct", "logged"):
        db = Database([Relation("R", ("A",), [values[0], (7,)])])
        relation = db["R"]
        digests = [relation_digest(relation)]
        for old, new in zip(values, values[1:]):
            if swap == "direct":
                relation.tuples.discard(old)
                relation.tuples.add(new)
            else:
                assert db.delete("R", old) and db.insert("R", new)
            (held,) = [t for t in relation.tuples if t == new]
            assert held is new
            digests.append(relation_digest(relation))
            assert digests[-1] == _fresh_digest(relation)
            assert _memo_holds_only_live_tuples(relation)
        assert len(set(digests)) == len(values)


def test_values_at_2_53_digest_apart():
    rows = [(2**53,), (2**53 + 1,), (-(2**53),), (-(2**53) - 1,), (2.0**54,)]
    relation = Relation("R", ("A",), rows)
    digest = relation_digest(relation)
    assert digest == _fresh_digest(relation)
    for t in rows:
        assert relation_digest(Relation("R", ("A",), [r for r in rows if r != t])) != digest


def test_an_unchanged_relation_is_not_read_again(monkeypatch):
    relation = Relation("R", ("A",), [(i,) for i in range(5)])
    digest = relation_digest(relation)
    monkeypatch.setattr(reduction_cache, "encode_value", None)  # any call fails
    assert relation_digest(relation) == digest
    relation.tuples.discard((3,))  # a delete encodes nothing
    digest = relation_digest(relation)
    monkeypatch.undo()
    assert digest == _fresh_digest(relation)


# ----------------------------------------------------------------------
# (b) the change log by slice
# ----------------------------------------------------------------------


def _scanned(db: Database, version: int):
    """What ``changes_since`` answered before it sliced."""
    if version >= db.version:
        return []
    if version < db._log_floor:
        return None
    return [d for d in db._log if d.version > version]


@pytest.mark.parametrize("seed", range(3))
def test_the_slice_is_the_scan_across_the_trim(seed):
    rng = random.Random(seed + 107 + FUZZ_SEED)
    db = Database([Relation("R", ("A",)), Relation("S", ("A",))])
    db.CHANGE_LOG_MAX = 7
    history = list(db._log)
    for _ in range(40):
        name = rng.choice("RS")
        step = rng.random()
        if step < 0.5:
            delta = db.insert(name, (rng.randint(0, 5),))
        elif step < 0.9:
            delta = db.delete(name, (rng.randint(0, 5),))
        else:
            delta = db.replace(Relation(name, ("A",), db[name].tuples))
        if delta is not None:
            history.append(delta)
        for version in range(-2, db.version + 3):
            got = db.changes_since(version)
            assert got == _scanned(db, version), version
            if got is not None:
                assert got == [d for d in history if d.version > version]


def test_the_edges_of_the_log():
    fresh = Database()
    assert fresh.changes_since(0) == [] and fresh.changes_since(5) == []
    assert fresh.changes_since(-1) is None
    db = Database([Relation("R", ("A",))])
    db.CHANGE_LOG_MAX = 3
    for value in range(6):
        db.insert("R", (value,))
    floor = db._log_floor
    assert floor == db.version - 3
    assert db.changes_since(floor) == db._log == _scanned(db, floor)
    assert len(db.changes_since(floor)) == 3
    assert db.changes_since(floor - 1) is None
    assert db.changes_since(db.version) == []
    assert [d.version for d in db.changes_since(db.version - 1)] == [db.version]


# ----------------------------------------------------------------------
# (c) the patch kernel keeps its keys
# ----------------------------------------------------------------------


def _memo_is_current(counts: ColumnarCounts) -> bool:
    """A kept key memo is the packing of the block as it is now: cells
    below the radices, keys strictly increasing."""
    if counts._keys is None:
        return counts._radices is None
    block = counts.block
    codes = np.asarray(block.codes)
    weights = [math.prod(counts._radices[j + 1 :]) for j in range(block.width)]
    return (
        counts._sorted_version == block.version
        and math.prod(counts._radices) <= KEY_LIMIT
        and (codes < np.array(counts._radices, dtype=np.int64)).all()
        and np.array_equal(counts._keys, codes.astype(np.int64) @ np.array(weights))
        and bool((counts._keys[1:] > counts._keys[:-1]).all())
    )


def _memoless(result) -> None:
    """Drop every key memo: the next patch takes the path the kernel
    took before it kept keys."""
    for counts in result.variant_counts.values():
        counts._radices = counts._keys = None


def _disjoint(query, db):
    base = shift_distinct_left(query, db) if query.is_self_join_free else db
    return forward_reduce(query, base, disjoint=True, provenance=True)


def _script(query, db, rng, steps):
    """Seeded in-domain inserts and deletes of ``query``'s relations."""
    relations = sorted(query.relations)
    inserted = []
    for step in range(steps):
        name = relations[step % len(relations)]
        if step % 3 == 2 and inserted:
            delta = db.delete(*inserted.pop(rng.randrange(len(inserted))))
        elif step % 5 == 4:
            delta = db.delete(name, sorted(db[name].tuples, key=repr)[0])
        else:
            delta = db.insert(name, _recombined(db, name, rng))
            inserted.append((name, delta.tuple))
        if delta is not None:
            yield delta


SELF_JOIN = parse_query("R([A],[B]) ∧ R([B],[C])")


@pytest.mark.parametrize(
    "query",
    [TRIANGLE, catalog.figure9e_ij(), catalog.path_ij(3), SELF_JOIN],
    ids=["triangle", "fig9e", "path3", "self_join"],
)
def test_fresh_mapped_and_chain_loaded_patches_are_the_memoless_ones(
    query, tmp_path, monkeypatch
):
    seed = 109 + FUZZ_SEED
    source = query if query.is_self_join_free else parse_query("R([A],[B])")
    start = random_database(source, 12, seed=seed, domain=40.0, mean_length=8.0)
    path = tmp_path / "entry.red"
    path.write_bytes(serialize_result(_disjoint(query, start), FORMAT_VERSION))
    mapped_bytes = path.read_bytes()
    # a chain: one delta frame over a full entry
    chained_db = start.clone()
    cache = ReductionCache(tmp_path / "cache")
    cache.put("0" * 64, _disjoint(query, chained_db))
    parent = cache.get("0" * 64)
    deltas = list(_script(query, chained_db, random.Random(seed), 3))
    for delta in deltas:
        parent.apply_delta(delta)
    cache.put("1" * 64, parent, deltas)
    assert cache.delta_stores == 1

    def states():
        """Per state, its database and the artifact twice: once to
        patch as is, once to patch memo-less."""
        db = start.clone()
        yield "fresh", db, _disjoint(query, db), _disjoint(query, db)
        yield "mapped", start.clone(), *(load_result(path, FORMAT_VERSION) for _ in "ab")
        yield "chained", chained_db, cache.get("1" * 64), cache.get("1" * 64)

    fast = Counter()
    adjust = ColumnarCounts.adjust

    def counted(self, rows, step):
        fast[self._radices is not None and self.block.version == self._sorted_version] += 1
        adjust(self, rows, step)

    monkeypatch.setattr(ColumnarCounts, "adjust", counted)
    for label, db, kept, memoless in states():
        assert result_digest(kept) == result_digest(memoless), label
        for delta in _script(query, db, random.Random(seed + 1), 12):
            kept.apply_delta(delta)
            _memoless(memoless)
            memoless.apply_delta(delta)
            assert result_digest(kept) == result_digest(memoless), (label, delta)
            assert all(_memo_is_current(c) for c in kept.variant_counts.values())
            truth = naive_evaluate(query, db)
            assert evaluate_disjunction(kept) == truth, label
            assert evaluate_disjunction(_disjoint(query, db)) == truth
            if query.is_self_join_free:
                assert count_disjunction(kept) == naive_count(query, db), label
    assert fast[True] > 0 and fast[False] > 0
    assert path.read_bytes() == mapped_bytes


class _Kernel:
    """One :class:`ColumnarCounts` over read-only arrays, and the
    ``Counter`` of rows it must hold after every :meth:`adjust`."""

    def __init__(self, rows, kinds, counts=None, bounds=None):
        codes = np.asarray(rows, dtype=CODE_DTYPE).reshape(len(rows), len(kinds))
        array = np.asarray(counts or [1] * len(rows), dtype=COUNT_DTYPE)
        codes.setflags(write=False)
        array.setflags(write=False)
        self.originals = (codes, codes.copy(), array, array.copy())
        self.block = ColumnBlock(codes, kinds, CodeBook(range(8)), bounds)
        self.counts = ColumnarCounts(self.block, array)
        self.reference = Counter(
            {tuple(row): int(n) for row, n in zip(codes.tolist(), array.tolist())}
        )

    def adjust(self, rows, step):
        rows = np.asarray(rows, dtype=CODE_DTYPE).reshape(len(rows), self.block.width)
        self.counts.adjust(rows, step)
        for row in map(tuple, rows.tolist()):
            if step > 0 or row in self.reference:
                self.reference[row] += step
        self.reference = +self.reference
        got = dict(zip(map(tuple, self.block.codes.tolist()), self.counts.array.tolist()))
        assert got == dict(self.reference)
        assert self.block.width == 0 or _is_sorted(self.block.codes)
        assert _memo_is_current(self.counts)
        codes, codes_copy, array, array_copy = self.originals
        assert np.array_equal(codes, codes_copy) and np.array_equal(array, array_copy)


def test_a_cell_at_the_radix_rebuilds_the_memo():
    kernel = _Kernel([[0, 1, 2], [3, 4, 5], [5, 0, 1]], (COL_CODE, COL_CODE, COL_ID))
    kernel.adjust([[1, 1, 1]], 1)
    radices = list(kernel.counts._radices)
    assert radices == [16, 16, 16]
    kernel.adjust([[radices[0] - 1, 2, 2]], 1)  # below: the memo holds
    assert kernel.counts._radices == radices
    kernel.adjust([[2, radices[1], 3]], 1)  # at: rebuilt, wider
    assert kernel.counts._radices[1] > radices[1]
    kernel.adjust([[2, radices[1], 3], [0, 1, 2]], -1)
    kernel.adjust([[9, 9, 300]], 1)


def test_a_declared_bound_is_the_radix():
    kernel = _Kernel([[3, 1], [6, 0]], (COL_CODE, COL_CODE), bounds=(8, None))
    kernel.adjust([[7, 2]], 1)
    # twice the smallest power of two above the column's largest cell
    assert kernel.counts._radices == [8, 8]


@pytest.mark.parametrize("bounded", [False, True])
def test_radices_past_the_key_limit_keep_no_memo(bounded):
    """Keys are then ranks over the block and the rows together; a
    declared bound stays the radix of its column, whatever the rows."""
    rng = np.random.default_rng(139 + FUZZ_SEED)
    top = 1 << 17
    rows = rng.integers(0, top, (40, 4))
    rows[:20, 1] = rng.integers(0, 4, 20)  # rows a small batch can match
    rows = np.unique(rows, axis=0)
    small = rows[rows[:, 1] < 4]
    bounds = (None, top, None, None) if bounded else None
    kernel = _Kernel(rows, (COL_CODE, COL_BITS, COL_CODE, COL_CODE), bounds=bounds)
    for step in (1, -1, 1, 1, -1):
        batch = rng.integers(0, 4, (6, 4))  # small cells, in and out of the block
        batch[:2] = small[rng.choice(len(small), 2, replace=False)]
        kernel.adjust(np.unique(batch, axis=0), step)
        assert kernel.counts._radices is None and kernel.counts._keys is None


def test_a_foreign_replace_rows_between_two_patches():
    rng = np.random.default_rng(113 + FUZZ_SEED)
    rows = np.unique(rng.integers(0, 6, (30, 3)), axis=0)
    kernel = _Kernel(rows, (COL_CODE,) * 3)
    kernel.adjust([[7, 7, 7]], 1)
    assert kernel.counts._keys is not None
    shuffle = rng.permutation(kernel.block.row_count)
    kernel.block.replace_rows(kernel.block.codes[shuffle])
    kernel.counts.array = kernel.counts.array[shuffle]
    assert not _is_sorted(kernel.block.codes)
    kernel.adjust([[0, 0, 0], [7, 7, 7]], -1)
    kernel.adjust([[7, 7, 6]], 1)


def test_a_delete_that_empties_the_block():
    kernel = _Kernel([[1, 2], [2, 1]], (COL_CODE, COL_ID))
    kernel.adjust([[1, 2]], -1)
    kernel.adjust([[2, 1]], -1)
    assert kernel.block.row_count == 0 and kernel.counts._keys.size == 0
    kernel.adjust([[2, 1]], -1)  # nothing left to delete
    kernel.adjust([[2, 2], [0, 3]], 1)
    assert kernel.block.codes.tolist() == [[0, 3], [2, 2]]


def test_a_zero_arity_variant():
    kernel = _Kernel([()], (), counts=[2])
    assert kernel.block.width == 0
    kernel.adjust([()], -1)
    assert kernel.counts.array.tolist() == [1]
    kernel.adjust([()], -1)
    assert kernel.block.row_count == 0
    kernel.adjust([()], 1)
    kernel.adjust([()], 1)
    assert kernel.counts.array.tolist() == [2]


# ----------------------------------------------------------------------
# (d) re-ranking from cardinalities
# ----------------------------------------------------------------------


def test_acyclicity_is_computed_once_per_disjunct(monkeypatch):
    seed = 127 + FUZZ_SEED
    rng = random.Random(seed)
    for query in (TRIANGLE, catalog.cycle_ij(4), catalog.path_ij(3)):
        db = random_database(query, 10, seed=seed, domain=40.0, mean_length=8.0)
        # disjunct objects of their own, not ones an earlier test ranked
        forward.disjunction.cache_clear()
        result = _disjoint(query, db)
        calls = []
        monkeypatch.setattr(
            query_module, "is_alpha_acyclic", lambda h: calls.append(h) or is_alpha_acyclic(h)
        )
        order = evaluation_order(result)
        assert len(calls) == len(result.ej_queries)
        for delta in _script(query, db, rng, 4):
            result.apply_delta(delta)
            assert result.disjunct_order is None
            order = evaluation_order(result)
            assert list(order) == rank_order(result.ej_queries, result.database)
        assert len(calls) == len(result.ej_queries)
        assert [q.is_alpha_acyclic for q in result.ej_queries] == [
            is_alpha_acyclic(q.hypergraph()) for q in result.ej_queries
        ]
        monkeypatch.undo()


# ----------------------------------------------------------------------
# (e) each unpatched rebuild with its cause
# ----------------------------------------------------------------------


def _warm(seed, max_log=None):
    db = random_database(TRIANGLE, 12, seed=seed, domain=40.0, mean_length=8.0)
    if max_log is not None:
        db.CHANGE_LOG_MAX = max_log
    session = QuerySession(db)
    assert session.evaluate(TRIANGLE, strategy="reduction") == naive_evaluate(TRIANGLE, db)
    return db, session


def _in_domain(session, name, rng):
    ((result, _),) = session._reductions.values()
    return _in_domain_tuple(result, name, rng)


def _log_trimmed(db, session, rng):
    for _ in range(3):
        db.insert("R", _in_domain(session, "R", rng))


def _replaced(db, session, rng):
    db.replace(Relation("R", db["R"].schema, db["R"].tuples))


def _whole_relation(db, session, rng):
    db.insert("R", _in_domain(session, "R", rng))
    db.replace(db["R"])  # the same object: only the log says what happened


def _unlogged(db, session, rng):
    db["R"].tuples.add(_in_domain(session, "R", rng))


GAPS = {
    "log_trimmed": _log_trimmed,
    "replaced": _replaced,
    "whole_relation": _whole_relation,
    "unlogged": _unlogged,
}


def test_the_gaps_are_the_reasons():
    assert sorted(GAPS) == sorted(SessionStats.UNPATCHED_REASONS)


@pytest.mark.parametrize("reason", SessionStats.UNPATCHED_REASONS)
def test_each_unpatched_rebuild_is_counted_with_its_cause(reason):
    seed = 131 + FUZZ_SEED
    db, session = _warm(seed, max_log=2)
    GAPS[reason](db, session, random.Random(seed))
    assert session.evaluate(TRIANGLE, strategy="reduction") == naive_evaluate(TRIANGLE, db)
    assert session.count(TRIANGLE) == naive_count(TRIANGLE, db)
    stats = session.stats.as_dict()
    by_reason = {r: stats[f"unpatched_{r}"] for r in SessionStats.UNPATCHED_REASONS}
    assert by_reason == {r: int(r == reason) for r in SessionStats.UNPATCHED_REASONS}
    assert sum(by_reason.values()) == stats["unpatched"] == 1
    assert (stats["reductions"], stats["delta_patches"], stats["domain_changed"]) == (2, 0, 0)


def test_the_unpatched_reasons_land_in_a_pool_aggregate():
    workers = []
    for reasons in (("unlogged", "unlogged"), ("replaced",), ("log_trimmed", "whole_relation")):
        stats = SessionStats()
        for reason in reasons:
            stats.unpatched += 1
            stats.unpatched_by[reason] += 1
        workers.append({"session": stats.as_dict()})
    aggregate = WorkerPool._report(SimpleNamespace(respawns=0), workers)["aggregate"]
    by_reason = {r: aggregate[f"unpatched_{r}"] for r in SessionStats.UNPATCHED_REASONS}
    assert by_reason == {"log_trimmed": 1, "replaced": 1, "whole_relation": 1, "unlogged": 2}
    assert sum(by_reason.values()) == aggregate["unpatched"] == 5


# ----------------------------------------------------------------------
# (f) a directory is made only when a write finds it missing
# ----------------------------------------------------------------------


def test_a_shard_directory_is_made_once_and_remade_when_gone(tmp_path, monkeypatch):
    db = random_database(TRIANGLE, 6, seed=137 + FUZZ_SEED, domain=40.0, mean_length=8.0)
    result = _disjoint(TRIANGLE, db)
    cache = ReductionCache(tmp_path)
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self.name)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    keys = ["ab" + "0" * 62, "ab" + "1" * 62, "cd" + "0" * 62]
    for key in keys:
        cache.put(key, result)
    assert made == ["ab", "cd"] and cache.stores == 3
    shutil.rmtree(tmp_path / "ab")  # a cleaner took it
    cache.put("ab" + "2" * 62, result)
    assert made == ["ab", "cd", "ab"] and cache.stores == 4
    assert cache.get("ab" + "2" * 62) is not None
    # a write that finds the directory gone again drops the store
    shutil.rmtree(tmp_path / "cd")

    def vanished(path, data):
        raise FileNotFoundError(path)

    monkeypatch.setattr(reduction_cache, "_write_atomic", vanished)
    cache.put("cd" + "1" * 62, result)
    assert cache.stores == 4


def test_a_namespace_directory_is_made_once(tmp_path, monkeypatch):
    db = random_database(TRIANGLE, 6, seed=139 + FUZZ_SEED, domain=40.0, mean_length=8.0)
    result = _disjoint(TRIANGLE, db)
    cache = ReductionCache(tmp_path, namespace="tenant")
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self.name)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    cache.put("ab" + "0" * 62, result)  # makes the shard and the namespace
    assert {"ab", "tenant"} <= set(made)
    first = len(made)
    cache.put("ab" + "1" * 62, result)
    cache.put("cd" + "0" * 62, result)
    assert made[first:] == ["cd"] and cache.stores == 3
    assert sorted(p.name[:3] for p in (tmp_path / "_namespaces" / "tenant").iterdir()) == [
        "ab0", "ab1", "cd0"
    ]
