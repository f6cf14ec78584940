"""A warm load reuses what its artifact already fixes.

* **The stored disjunct order** — a full frame carries the permutation
  ``rank_order`` gives on the artifact as written; a load serves it
  without ranking, a patch drops it, and an entry without it (as older
  writers leave one) still loads with zero reductions.  A forged order
  is a counted ``miss_invalid`` that heals.
* **Provenance on demand** — a load keeps ``tuple_order`` and the rank
  table as their payload until a patch or a witness reads them; a
  payload that does not decode never touches EXISTS or COUNT, and turns
  the first patch or witness read into a counted rebuild.
* **Each rebuild with its cause** — ``DomainChanged.reason``, counted per
  reason by the session (and so by a pool's aggregate).
* **Each variant block sorted once** — the memoized kernels answer like
  ``tests/oracles/ej.py`` and like the naive oracle on fresh, patched
  and chain-loaded artifacts and on self-joins, and ``replace_rows``
  never serves what was derived from the previous matrix.
* **The disjunction derived, not stored** — a v9 frame holds the query
  and its flags; a load derives the disjuncts, variants and schemas
  through the reducer's own memoized derivation, shares its objects,
  digests like the live artifact, plans each shared disjunct once, and
  treats relations that are not the derived variants as a counted
  ``miss_invalid``.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import os
import pickle
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import ej as oracle
from test_planning import RANKED_AT_PARENT

from repro.core import QuerySession, naive_count, naive_evaluate
from repro.core.baselines import naive_witnesses
from repro.core.cache_format import (
    _frame,
    _parse_frame,
    deserialize_result,
    serialize_result,
)
from repro.core.disjunct_eval import count_disjunction, ranked_disjuncts
from repro.core.reduction_cache import FORMAT_VERSION, result_digest
from repro.core.session import SessionStats
from repro.engine import JoinAtom, Relation, ej
from repro.engine.columnar_eval import generic_join_boolean, generic_join_count
from repro.engine.ej import count_ej, evaluate_ej
from repro.engine.relation import Delta
from repro.engine.statistics import rank_order
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.reduction import DomainChanged, forward, forward_reduce, shift_distinct_left
from repro.reduction.columnar import CODE_DTYPE, COL_CODE, CodeBook, ColumnBlock
from repro.reduction.forward import ForwardReductionResult, Undecoded
from repro.service.pool import WorkerPool
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

TRIANGLE = catalog.triangle_ij()
SELF_JOIN = parse_query("R([A],[B]) ∧ R([B],[C])")


def _database(query, seed, n=12, domain=40.0):
    if query is SELF_JOIN:  # one relation, generated once
        query = parse_query("R([A],[B])")
    return random_database(query, n, seed=seed, domain=domain, mean_length=8.0)


def _entry(directory) -> Path:
    """The one cache entry under ``directory``."""
    (path,) = Path(directory).glob("*/*.red")
    return path


def _reframe(path: Path, edit) -> None:
    """Rewrite the full frame at ``path`` with ``edit(meta)`` applied:
    a valid header and digest over content another writer could have
    left."""
    raw = path.read_bytes()
    meta, blob_base = _parse_frame(raw, FORMAT_VERSION)
    edit(meta)
    path.write_bytes(_frame(meta, [raw[blob_base:]]))


def _recombined(db, relation, rng):
    """An in-domain insert: each column of an existing tuple."""
    rows = sorted(db[relation].tuples, key=repr)
    for _ in range(200):
        t = tuple(rng.choice(rows)[col] for col in range(len(rows[0])))
        if t not in db[relation].tuples:
            return t
    pytest.skip("no recombined tuple outside the relation")


def _witnesses(rows):
    return sorted(repr(sorted(w.items())) for w in rows)


def _answers_like_naive(session, query, db):
    assert session.evaluate(query, strategy="reduction") == naive_evaluate(query, db)
    assert session.count(query) == naive_count(query, db)


# ----------------------------------------------------------------------
# (a) the stored disjunct order
# ----------------------------------------------------------------------


def _disjoint(query, db):
    return forward_reduce(
        query, shift_distinct_left(query, db), disjoint=True, provenance=True
    )


@pytest.mark.parametrize("name", sorted(catalog.PAPER_IJ_QUERIES))
def test_the_stored_order_is_the_ranking_of_a_fresh_reduction(name):
    query = catalog.PAPER_IJ_QUERIES[name]()
    n = {"lw4": 1, "fig9a": 2, "fig9b": 2}.get(name, 6)
    db = random_database(query, n, seed=5 + FUZZ_SEED, domain=12.0, mean_length=4.0)
    for build in (lambda: forward_reduce(query, db), lambda: _disjoint(query, db)):
        written = build()
        raw = serialize_result(written, FORMAT_VERSION)
        fresh = build()
        expected = rank_order(fresh.ej_queries, fresh.database)
        assert _parse_frame(raw, FORMAT_VERSION)[0]["disjunct_order"] == expected
        loaded = deserialize_result(raw, FORMAT_VERSION)
        assert loaded.disjunct_order == tuple(expected)
        assert ranked_disjuncts(loaded) == [fresh.ej_queries[i] for i in expected]


@pytest.mark.parametrize("shape", RANKED_AT_PARENT)
def test_the_orders_pinned_for_the_planner_are_what_a_frame_stores(shape):
    query, n, order = RANKED_AT_PARENT[shape]
    result = forward_reduce(query, random_database(query, n, seed=1))
    meta, _ = _parse_frame(serialize_result(result, FORMAT_VERSION), FORMAT_VERSION)
    assert meta["disjunct_order"] == order


def test_a_load_ranks_nothing(tmp_path, monkeypatch):
    db = _database(TRIANGLE, 3 + FUZZ_SEED)
    _answers_like_naive(QuerySession(db, cache_dir=tmp_path), TRIANGLE, db)

    def poisoned(*args):
        raise AssertionError("a load re-ranked its disjuncts")

    import repro.core.disjunct_eval as disjunct_eval

    monkeypatch.setattr(disjunct_eval, "rank_order", poisoned)
    warm = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(warm, TRIANGLE, db)
    assert (warm.stats.reductions, warm.stats.persistent_hits) == (0, 1)


def test_a_patch_drops_the_order_and_the_next_read_reranks(tmp_path):
    db = _database(TRIANGLE, 7 + FUZZ_SEED)
    session = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(session, TRIANGLE, db)
    (result, _), = session._reductions.values()
    assert result.disjunct_order is not None
    t = _recombined(db, "R", random.Random(FUZZ_SEED))
    # direct: the delta drops the order ranked on the old relations
    copy = deserialize_result(
        serialize_result(result, FORMAT_VERSION), FORMAT_VERSION
    )
    copy.apply_delta(Delta(0, "insert", "R", t))
    assert copy.disjunct_order is None
    # through the session: patched, then ranked on the patched blocks
    db.insert("R", t)
    _answers_like_naive(session, TRIANGLE, db)
    assert (session.stats.reductions, session.stats.delta_patches) == (1, 1)
    assert result.disjunct_order == tuple(
        rank_order(result.ej_queries, result.database)
    )
    # and a chain-loaded artifact (delta frame replayed) ranks afresh
    warm = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(warm, TRIANGLE, db)
    (loaded, _), = warm._reductions.values()
    assert loaded.stored_as[1] == 1 and warm.stats.reductions == 0
    assert loaded.disjunct_order == result.disjunct_order


@pytest.mark.parametrize("query", [TRIANGLE, SELF_JOIN], ids=["triangle", "self-join"])
def test_an_entry_without_the_order_loads_with_zero_reductions(query, tmp_path):
    db = _database(query, 11 + FUZZ_SEED)
    QuerySession(db, cache_dir=tmp_path).evaluate(query, strategy="reduction")
    _reframe(_entry(tmp_path), lambda meta: meta.pop("disjunct_order"))
    warm = QuerySession(db, cache_dir=tmp_path)
    assert warm.evaluate(query, strategy="reduction") == naive_evaluate(query, db)
    if query.is_self_join_free:
        assert warm.count(query) == naive_count(query, db)
    assert (warm.stats.reductions, warm.stats.persistent_hits) == (0, 1)


BAD_ORDERS = {
    "too short": lambda n: list(range(n - 1)),
    "too long": lambda n: list(range(n + 1)),
    "a duplicate": lambda n: [0] + list(range(n - 1)),
    "bools": lambda n: [False, True] + list(range(2, n)),
    "floats": lambda n: [float(i) for i in range(n)],
    "not a list": lambda n: {str(i): i for i in range(n)},
    "out of range": lambda n: list(range(1, n + 1)),
}


@pytest.mark.parametrize("case", sorted(BAD_ORDERS))
def test_a_forged_order_is_an_invalid_miss_that_heals(case, tmp_path):
    db = _database(TRIANGLE, 13 + FUZZ_SEED)
    QuerySession(db, cache_dir=tmp_path).evaluate(TRIANGLE, strategy="reduction")

    def forge(meta):
        meta["disjunct_order"] = BAD_ORDERS[case](len(meta["disjunct_order"]))

    _reframe(_entry(tmp_path), forge)
    cold = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(cold, TRIANGLE, db)
    assert cold.cache.stats()["miss_invalid"] == 1
    assert cold.stats.reductions == 1
    healed = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(healed, TRIANGLE, db)
    assert (healed.stats.reductions, healed.stats.persistent_hits) == (0, 1)


# ----------------------------------------------------------------------
# (b) provenance decoded on demand
# ----------------------------------------------------------------------


def test_a_load_decodes_provenance_on_first_read_only():
    db = _database(TRIANGLE, 17 + FUZZ_SEED)
    fresh = _disjoint(TRIANGLE, db)
    loaded = deserialize_result(
        serialize_result(fresh, FORMAT_VERSION), FORMAT_VERSION
    )
    pending = loaded.__dict__["_tuple_order"], loaded.__dict__["_ranks"]
    assert all(isinstance(field, Undecoded) for field in pending)
    # EXISTS and COUNT read neither
    assert ranked_disjuncts(loaded) == ranked_disjuncts(fresh)
    assert count_disjunction(loaded) == count_disjunction(fresh)
    assert pending == (loaded.__dict__["_tuple_order"], loaded.__dict__["_ranks"])
    order, ranks = loaded.tuple_order, loaded.ranks
    assert type(order) is dict and type(ranks) is tuple
    assert order == fresh.tuple_order and ranks == fresh.ranks
    assert loaded.tuple_order is order  # decoded once
    assert result_digest(loaded) == result_digest(fresh)


def _first_label(meta):
    return sorted(meta["tuple_order"])[0]


BAD_PROVENANCE = {
    # (forge the frame's metadata, the reason the first patch names)
    "an order entry that is no value": (
        lambda meta: meta["tuple_order"][_first_label(meta)].__setitem__(
            0, {"bogus": 1}
        ),
        "unknown_tuple",
    ),
    "an order entry of the wrong arity": (
        lambda meta: meta["tuple_order"][_first_label(meta)].__setitem__(
            0, {"tuple": [1]}
        ),
        "unknown_tuple",
    ),
    "an order for another atom": (
        lambda meta: meta["tuple_order"].__setitem__(
            "Z", meta["tuple_order"].pop(_first_label(meta))
        ),
        "unknown_tuple",
    ),
    "a rank that is no value": (
        lambda meta: meta["ranks"].__setitem__(0, {"bogus": 1}),
        "rank_table",
    ),
    "an unsorted rank table": (
        lambda meta: meta["ranks"].reverse(),
        "rank_table",
    ),
    "a rank that does not compare": (
        lambda meta: meta["ranks"].__setitem__(1, "x"),
        "rank_table",
    ),
}


def _forged(case, directory, db):
    QuerySession(db, cache_dir=directory).evaluate(TRIANGLE, strategy="reduction")
    _reframe(_entry(directory), BAD_PROVENANCE[case][0])
    warm = QuerySession(db, cache_dir=directory)
    _answers_like_naive(warm, TRIANGLE, db)
    assert (warm.stats.reductions, warm.stats.persistent_hits) == (0, 1)
    return warm


@pytest.mark.parametrize("case", sorted(BAD_PROVENANCE))
def test_undecodable_provenance_turns_the_first_patch_into_a_counted_rebuild(
    case, tmp_path
):
    db = _database(TRIANGLE, 19 + FUZZ_SEED)
    warm = _forged(case, tmp_path, db)
    db.insert("R", _recombined(db, "R", random.Random(FUZZ_SEED)))
    _answers_like_naive(warm, TRIANGLE, db)
    stats = warm.stats.as_dict()
    reason = BAD_PROVENANCE[case][1]
    assert (stats["domain_changed"], stats[f"domain_changed_{reason}"]) == (1, 1)
    assert (stats["reductions"], stats["delta_patches"]) == (1, 0)


@pytest.mark.parametrize("case", sorted(BAD_PROVENANCE))
def test_undecodable_provenance_turns_a_witness_read_into_a_counted_rebuild(
    case, tmp_path
):
    db = _database(TRIANGLE, 23 + FUZZ_SEED)
    warm = _forged(case, tmp_path, db)
    assert _witnesses(warm.witnesses(TRIANGLE)) == _witnesses(
        naive_witnesses(TRIANGLE, db)
    )
    stats = warm.stats.as_dict()
    reason = BAD_PROVENANCE[case][1]
    assert (stats["domain_changed"], stats[f"domain_changed_{reason}"]) == (1, 1)
    assert stats["reductions"] == 1
    # the rebuild re-wrote the entry: the next process is warm and whole
    healed = QuerySession(db, cache_dir=tmp_path)
    assert _witnesses(healed.witnesses(TRIANGLE)) == _witnesses(
        naive_witnesses(TRIANGLE, db)
    )
    assert (healed.stats.reductions, healed.stats.domain_changed) == (0, 0)


# ----------------------------------------------------------------------
# (c) every rebuild with its cause
# ----------------------------------------------------------------------


def _self_join_artifact(seed):
    db = _database(SELF_JOIN, seed)
    return forward_reduce(SELF_JOIN, db, disjoint=True, provenance=True), db


def _shifted_artifact(seed):
    db = _database(TRIANGLE, seed)
    return _disjoint(TRIANGLE, db), db


def _outside(db, relation):
    """A tuple of ``relation``'s arity whose endpoints no tree holds."""
    arity = len(next(iter(db[relation].tuples)))
    return tuple(Interval(-9999.5 - i, -9998.5 - i) for i in range(arity))


def _no_refcounts(seed):
    result, db = _shifted_artifact(seed)
    result.variant_counts.clear()
    return result, Delta(0, "insert", "R", _recombined(db, "R", random.Random(seed)))


#: reason -> (artifact, the delta that cannot be patched in for it)
CAUSES = {
    "not_tuple_level": lambda seed: (
        _shifted_artifact(seed)[0],
        Delta(0, "replace", "R", None),
    ),
    "arity": lambda seed: (
        _shifted_artifact(seed)[0],
        Delta(0, "insert", "R", (Interval(1, 2),)),
    ),
    "new_endpoint": lambda seed: (
        lambda result, db: (result, Delta(0, "insert", "R", _outside(db, "R")))
    )(*_self_join_artifact(seed)),
    "rank_table": lambda seed: (
        lambda result, db: (result, Delta(0, "insert", "R", _outside(db, "R")))
    )(*_shifted_artifact(seed)),
    # in the rank table (each column is an existing tuple's) but not in
    # the provenance order
    "unknown_tuple": lambda seed: (
        lambda result, db: (
            result,
            Delta(0, "delete", "R", _recombined(db, "R", random.Random(seed))),
        )
    )(*_shifted_artifact(seed)),
    "no_refcounts": _no_refcounts,
}


def test_the_causes_are_the_reasons():
    assert sorted(CAUSES) == sorted(DomainChanged.REASONS)
    with pytest.raises(ValueError):
        DomainChanged("weather", "not a reason")


@pytest.mark.parametrize("reason", DomainChanged.REASONS)
def test_each_rebuild_is_counted_with_its_cause(reason, monkeypatch):
    seed = 29 + FUZZ_SEED
    result, delta = CAUSES[reason](seed)
    with pytest.raises(DomainChanged) as caught:
        result.apply_delta(delta)
    assert caught.value.reason == reason
    # the session counts what a replay raised, under its reason
    db = _database(TRIANGLE, seed)
    session = QuerySession(db)
    _answers_like_naive(session, TRIANGLE, db)

    def refuse(self, delta):
        raise caught.value

    monkeypatch.setattr(ForwardReductionResult, "apply_delta", refuse)
    db.insert("R", _recombined(db, "R", random.Random(seed)))
    _answers_like_naive(session, TRIANGLE, db)
    stats = session.stats.as_dict()
    by_reason = {r: stats[f"domain_changed_{r}"] for r in DomainChanged.REASONS}
    assert by_reason == {r: int(r == reason) for r in DomainChanged.REASONS}
    assert sum(by_reason.values()) == stats["domain_changed"] == 1
    assert stats["reductions"] == 2


def test_real_rebuild_causes_are_counted_end_to_end():
    """No monkeypatching: a new endpoint under a shifted artifact is
    outside its rank table, under a self-join one outside its trees."""
    seed = 31 + FUZZ_SEED
    for query, reason in ((TRIANGLE, "rank_table"), (SELF_JOIN, "new_endpoint")):
        db = _database(query, seed)
        session = QuerySession(db)
        assert session.evaluate(query, strategy="reduction") == naive_evaluate(query, db)
        db.insert("R", _outside(db, "R"))
        assert session.evaluate(query, strategy="reduction") == naive_evaluate(query, db)
        stats = session.stats.as_dict()
        assert stats[f"domain_changed_{reason}"] == stats["domain_changed"] == 1


def test_the_reasons_land_in_a_pool_aggregate():
    workers = []
    for reason in ("rank_table", "rank_table", "arity"):
        stats = SessionStats()
        stats.rebuilt(DomainChanged(reason, "test"))
        workers.append({"session": stats.as_dict()})
    aggregate = WorkerPool._report(SimpleNamespace(respawns=0), workers)["aggregate"]
    assert aggregate["domain_changed"] == 3
    assert aggregate["domain_changed_rank_table"] == 2
    assert aggregate["domain_changed_arity"] == 1
    assert sum(aggregate[f"domain_changed_{r}"] for r in DomainChanged.REASONS) == 3


# ----------------------------------------------------------------------
# (d) each variant block sorted once
# ----------------------------------------------------------------------


def _assert_kernels(result, twice=True):
    """Per disjunct, the memoized kernels ≡ the tuple oracle — on a cold
    memo and again on a warm one."""
    db = result.database
    truths, counts = [], []
    for query in result.ej_queries:
        for _ in range(2 if twice else 1):
            truth = evaluate_ej(query, db)
            assert truth == oracle.evaluate_ej(query, db), query
            count = count_ej(query, db)
            assert count == oracle.count_ej(query, db), query
        truths.append(truth)
        counts.append(count)
    return any(truths), sum(counts)


def _patch(query, db, result, rng, steps=3):
    """A few in-domain inserts and a delete, on ``db`` and ``result``."""
    relations = sorted(query.relations)
    for step in range(steps):
        relation = relations[step % len(relations)]
        delta = db.insert(relation, _recombined(db, relation, rng))
        result.apply_delta(delta)
    victim = sorted(db[relations[0]].tuples, key=repr)[0]
    result.apply_delta(db.delete(relations[0], victim))


@pytest.mark.parametrize(
    "query",
    [catalog.triangle_ij(), catalog.cycle_ij(4), catalog.figure9e_ij()],
    ids=["triangle", "cycle4", "fig9e"],
)
def test_memoized_kernels_on_fresh_patched_and_chain_loaded_artifacts(query, tmp_path):
    seed = 37 + FUZZ_SEED
    rng = random.Random(seed)
    db = _database(query, seed, n=8, domain=30.0)
    fresh = _disjoint(query, db)
    assert _assert_kernels(fresh) == (naive_evaluate(query, db), naive_count(query, db))
    _patch(query, db, fresh, rng)
    assert _assert_kernels(fresh) == (naive_evaluate(query, db), naive_count(query, db))
    # chain-loaded: a session patches and persists delta frames, a second
    # process replays them
    session = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(session, query, db)
    for relation in sorted(query.relations)[:2]:
        db.insert(relation, _recombined(db, relation, rng))
        _answers_like_naive(session, query, db)
    warm = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(warm, query, db)
    (loaded, _), = warm._reductions.values()
    assert loaded.stored_as[1] >= 1 and warm.stats.reductions == 0
    assert _assert_kernels(loaded) == (naive_evaluate(query, db), naive_count(query, db))


def test_memoized_kernels_on_a_self_join_artifact():
    seed = 41 + FUZZ_SEED
    db = _database(SELF_JOIN, seed, n=10)
    result = forward_reduce(SELF_JOIN, db, disjoint=True, provenance=True)
    db_truth = naive_evaluate(SELF_JOIN, db)
    for _ in range(2):
        assert any(
            evaluate_ej(q, result.database) for q in ranked_disjuncts(result)
        ) == db_truth
    for query in result.ej_queries:
        assert evaluate_ej(query, result.database) == oracle.evaluate_ej(
            query, result.database
        )


@pytest.mark.parametrize("seed", range(4))
def test_one_block_serving_several_atoms(seed):
    """A cycle over one relation: every atom reads the same block, in
    different column orders, so the memo serves each projection to
    whichever atom asks under the same positions and radices."""
    rng = random.Random(seed + 43 + FUZZ_SEED)
    book = CodeBook()
    rows = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(25)}
    relation = Relation("E", ("u", "v"), rows)
    block = ColumnBlock(
        np.array(sorted(rows), dtype=CODE_DTYPE).reshape(-1, 2),
        (COL_CODE, COL_CODE),
        book,
    )
    for value in range(6):
        book.code(value)
    shared = Relation.from_columns("E", ("u", "v"), block)
    for k in (3, 4):
        names = [f"x{i}" for i in range(k)]
        cycle = [(names[i], names[(i + 1) % k]) for i in range(k)]
        atoms = [JoinAtom(shared, pair) for pair in cycle]
        plain = [JoinAtom(relation, pair) for pair in cycle]
        for _ in range(2):
            assert generic_join_count(atoms) == oracle.generic_join_count(plain)
            assert generic_join_boolean(atoms) == oracle.generic_join_boolean(plain)


def test_a_projection_is_resorted_when_another_atom_widens_its_radix():
    """One block in triangles whose other atoms are narrow, then wide:
    the radix of a variable the block shares differs between the joins,
    so the memoized levels of the same projection must not be served
    under the other radix."""
    book = CodeBook(range(64))
    rng = random.Random(59 + FUZZ_SEED)

    def relation(name, top_u, top_v):
        rows = sorted(
            {(rng.randint(0, top_u), rng.randint(0, top_v)) for _ in range(30)}
        )
        codes = np.array(rows, dtype=CODE_DTYPE)
        block = ColumnBlock(codes, (COL_CODE,) * 2, book)
        return Relation.from_columns(name, ("u", "v"), block), Relation(
            name, ("u", "v"), rows
        )

    shared, plain_r = relation("R", 5, 5)
    for top in (5, 60, 2, 60):
        s, plain_s = relation("S", top, 5)
        t, plain_t = relation("T", 5, 5)
        atoms = [
            JoinAtom(shared, ("a", "b")), JoinAtom(s, ("b", "c")), JoinAtom(t, ("c", "a"))
        ]
        plain = [
            JoinAtom(plain_r, ("a", "b")),
            JoinAtom(plain_s, ("b", "c")),
            JoinAtom(plain_t, ("c", "a")),
        ]
        expected = oracle.generic_join_count(plain)
        for order in (["a", "b", "c"], ["b", "a", "c"]):
            assert generic_join_count(atoms, order) == expected
            assert generic_join_boolean(atoms, order) == (expected > 0)


def test_replace_rows_never_serves_what_the_old_matrix_fixed():
    rng = random.Random(47 + FUZZ_SEED)
    book = CodeBook(range(40))

    def matrix(n, top):
        return np.array(
            [[rng.randint(0, top), rng.randint(0, top)] for _ in range(n)],
            dtype=CODE_DTYPE,
        )

    block = ColumnBlock(np.unique(matrix(30, 9), axis=0), (COL_CODE, COL_CODE), book)
    relation = Relation.from_columns("E", ("u", "v"), block)
    atoms = [JoinAtom(relation, ("a", "b")), JoinAtom(relation, ("b", "c"))]
    for codes in (np.unique(matrix(50, 30), axis=0), np.unique(matrix(5, 3), axis=0)):
        # fill every memo from the current matrix, then replace it
        generic_join_count(atoms), generic_join_boolean(atoms)
        assert block.column_maxima() == block.codes.max(axis=0).tolist()
        assert block.distinct_count(0) == np.unique(block.codes[:, 0]).size
        block.replace_rows(codes)
        assert block.column_maxima() == codes.max(axis=0).tolist()
        assert [block.distinct_count(j) for j in range(2)] == [
            np.unique(codes[:, j]).size for j in range(2)
        ]
        rows = [tuple(int(x) for x in row) for row in codes]
        plain = Relation("E", ("u", "v"), rows)
        expected = [JoinAtom(plain, ("a", "b")), JoinAtom(plain, ("b", "c"))]
        assert generic_join_count(atoms) == oracle.generic_join_count(expected)
        assert generic_join_boolean(atoms) == oracle.generic_join_boolean(expected)


def test_a_patched_variant_block_forgets_its_memos():
    db = _database(TRIANGLE, 53 + FUZZ_SEED)
    result = _disjoint(TRIANGLE, db)
    _assert_kernels(result, twice=False)
    blocks = {r.name: r.columnar for r in result.database}
    remembered = {name for name, block in blocks.items() if block._derived}
    assert remembered
    delta = db.insert("R", _recombined(db, "R", random.Random(FUZZ_SEED)))
    result.apply_delta(delta)
    patched = {name for name, block in blocks.items() if block.version}
    assert patched and all(name.startswith("R~") for name in patched)
    assert all(blocks[name]._derived == {} for name in patched)
    assert _assert_kernels(result) == (
        naive_evaluate(TRIANGLE, db),
        naive_count(TRIANGLE, db),
    )


# ----------------------------------------------------------------------
# (e) the disjunction is derived, not stored
# ----------------------------------------------------------------------

FLAGS = [(False, False), (True, True)]


def _flagged(query, db, disjoint, provenance):
    if disjoint:
        db = shift_distinct_left(query, db)
    return forward_reduce(query, db, disjoint=disjoint, provenance=provenance)


@pytest.mark.parametrize("flags", FLAGS, ids=["plain", "appendix-g"])
@pytest.mark.parametrize("name", sorted(catalog.PAPER_IJ_QUERIES))
def test_the_derived_disjunction_is_what_a_reducer_encodes(name, flags):
    query = catalog.PAPER_IJ_QUERIES[name]()
    n = {"lw4": 1, "fig9a": 2, "fig9b": 2}.get(name, 5)
    db = random_database(query, n, seed=3 + FUZZ_SEED, domain=12.0, mean_length=4.0)
    key = forward.query_content_key(query)
    derived = forward.disjunction(key, query.name, *flags)
    fresh = forward.disjunction.__wrapped__(key, query.name, *flags)  # no memo
    assert derived is not fresh and derived.query == query
    assert [repr(e.query) for e in derived.encoded_queries] == [
        repr(e.query) for e in fresh.encoded_queries
    ]
    assert [e.query.name for e in derived.encoded_queries] == [
        f"{query.name}~{i}" for i in range(len(fresh.encoded_queries))
    ]
    assert [e.positions for e in derived.encoded_queries] == [
        e.positions for e in fresh.encoded_queries
    ]
    assert dict(derived.atom_variants) == dict(fresh.atom_variants)
    assert derived.variants == fresh.variants
    result = _flagged(query, db, *flags)
    assert result.encoded_queries is derived.encoded_queries
    assert result.atom_variants is derived.atom_variants
    assert (result.disjoint, result.provenance) == flags
    assert [
        (r.name, r.schema, r.columnar.kinds) for r in result.database
    ] == [(v.name, v.schema, v.kinds) for v in derived.variants]
    assert [v.spec.name() for v in derived.variants] == [
        v.name for v in derived.variants
    ]
    # the shared disjuncts are immutable
    eq = derived.encoded_queries[0]
    with pytest.raises(AttributeError):
        eq.positions = {}
    with pytest.raises(TypeError):
        eq.positions[next(iter(eq.positions))]["x"] = 1
    # and a load hands out the very same objects
    loaded = deserialize_result(serialize_result(result, FORMAT_VERSION), FORMAT_VERSION)
    assert loaded.encoded_queries is derived.encoded_queries
    assert result_digest(loaded) == result_digest(result)


def _drop_last(meta):
    meta["relations"].pop()


def _rename_first(meta):
    meta["relations"][0]["name"] += "x"


def _reverse(meta):
    meta["relations"].reverse()


def _one_column_wider(meta):
    blob = meta["blobs"][meta["relations"][0]["codes"]]
    rows, cols = blob["shape"]
    blob["shape"] = [rows * cols // (cols + 1), cols + 1]
    blob["nbytes"] = 4 * blob["shape"][0] * blob["shape"][1]


def _flags_flipped(meta):
    meta["provenance"] = not meta["provenance"]


def _flag_not_a_bool(meta):
    meta["disjoint"] = 1


BAD_RELATIONS = {
    "a relation missing": _drop_last,
    "a relation renamed": _rename_first,
    "the relations reordered": _reverse,
    "a matrix one column wider": _one_column_wider,
    "the flags flipped": _flags_flipped,
    "a flag that is no bool": _flag_not_a_bool,
}


@pytest.mark.parametrize("case", sorted(BAD_RELATIONS))
def test_relations_that_are_not_the_derived_variants_are_an_invalid_miss(
    case, tmp_path
):
    db = _database(TRIANGLE, 41 + FUZZ_SEED)
    QuerySession(db, cache_dir=tmp_path).evaluate(TRIANGLE, strategy="reduction")
    path = _entry(tmp_path)
    _reframe(path, BAD_RELATIONS[case])
    cache = QuerySession(db, cache_dir=tmp_path).cache
    assert cache.get(path.stem) is None
    assert cache.stats()["miss_invalid"] == 1
    assert not path.exists()  # unlinked
    cold = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(cold, TRIANGLE, db)
    assert cold.stats.reductions == 1
    healed = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(healed, TRIANGLE, db)
    assert (healed.stats.reductions, healed.stats.persistent_hits) == (0, 1)


def test_a_v8_entry_is_a_miss(tmp_path):
    import hashlib

    db = _database(TRIANGLE, 43 + FUZZ_SEED)
    QuerySession(db, cache_dir=tmp_path).evaluate(TRIANGLE, strategy="reduction")
    path = _entry(tmp_path)
    raw = path.read_bytes()
    meta, blob_base = _parse_frame(raw, FORMAT_VERSION)
    meta["format_version"] = 8
    body = _frame(meta, [raw[blob_base:]])[40:]
    path.write_bytes(b"REPROV08" + hashlib.sha256(body).digest() + body)
    warm = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(warm, TRIANGLE, db)
    assert warm.cache.stats()["miss_invalid"] == 1
    assert warm.stats.reductions == 1


def test_loaded_artifacts_digest_like_the_live_ones(tmp_path):
    rng = random.Random(47 + FUZZ_SEED)
    db = _database(TRIANGLE, 47 + FUZZ_SEED)
    # plain: a frame of a fresh reduction
    plain = forward_reduce(TRIANGLE, db)
    loaded = deserialize_result(serialize_result(plain, FORMAT_VERSION), FORMAT_VERSION)
    assert result_digest(loaded) == result_digest(plain)
    # session: the artifact a warm session loads
    writer = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(writer, TRIANGLE, db)
    (live, _), = writer._reductions.values()
    warm = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(warm, TRIANGLE, db)
    (loaded, _), = warm._reductions.values()
    assert loaded.stored_as[1] == 0 and warm.stats.reductions == 0
    assert result_digest(loaded) == result_digest(live)
    assert result_digest(loaded) == result_digest(_disjoint(live.original, db))
    # chain-loaded: the writer patches and stores a delta frame
    db.insert("R", _recombined(db, "R", rng))
    _answers_like_naive(writer, TRIANGLE, db)
    assert writer.stats.delta_patches == 1
    chained = QuerySession(db, cache_dir=tmp_path)
    _answers_like_naive(chained, TRIANGLE, db)
    (loaded, _), = chained._reductions.values()
    assert loaded.stored_as[1] == 1 and chained.stats.reductions == 0
    assert result_digest(loaded) == result_digest(live)


def test_the_memo_is_bounded_and_keyed_by_the_name():
    bound = forward.DISJUNCTION_MEMO_SIZE
    key = forward.query_content_key(TRIANGLE)
    named = [type(TRIANGLE)(TRIANGLE.atoms, name=f"q{i}") for i in range(bound + 8)]
    derived = [forward.disjunction(key, q.name) for q in named]
    memo = forward.disjunction.cache_info()
    assert memo.maxsize == bound and memo.currsize == bound
    assert forward.disjunction(key, named[-1].name) is derived[-1]  # still held
    assert forward.disjunction(key, named[0].name) is not derived[0]  # evicted
    # equal atoms, other names: other disjuncts, other digests
    db = _database(TRIANGLE, 59 + FUZZ_SEED)
    a, b = (forward_reduce(q, db) for q in named[:2])
    assert a.encoded_queries[0].query.name == "q0~0"
    assert b.encoded_queries[0].query.name == "q1~0"
    assert result_digest(a) != result_digest(b)
    for result in (a, b):
        loaded = deserialize_result(
            serialize_result(result, FORMAT_VERSION), FORMAT_VERSION
        )
        assert result_digest(loaded) == result_digest(result)


def test_each_shared_disjunct_is_planned_once(monkeypatch):
    forward.disjunction.cache_clear()
    monkeypatch.setattr(ej, "_query_plans", type(ej._query_plans)())
    db = _database(catalog.cycle_ij(4), 61 + FUZZ_SEED)
    frame = serialize_result(_disjoint(catalog.cycle_ij(4), db), FORMAT_VERSION)
    planned = []
    real = ej.plan_ej
    monkeypatch.setattr(ej, "plan_ej", lambda h, *a: planned.append(h) or real(h, *a))
    rounds = []
    for _ in range(3):
        loaded = deserialize_result(frame, FORMAT_VERSION)
        count_disjunction(loaded)
        rounds.append(len(planned))
    # a disjunct over an empty variant is answered before its plan
    planned_once = [
        q for q in loaded.ej_queries
        if all(len(loaded.database[a.relation]) for a in q.atoms)
    ]
    assert 0 < rounds[0] == len(planned_once)
    assert rounds == [rounds[0]] * 3  # the later loads plan nothing


def test_evaluating_a_query_leaves_its_pickle_as_it_was():
    query = parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])")
    db = random_database(query, 8, seed=67 + FUZZ_SEED, domain=30.0)
    before = pickle.dumps(query)
    session = QuerySession(db)
    session.evaluate(query, strategy="reduction")
    session.count(query)
    list(session.witnesses(query, limit=2))
    session.sql(
        "SELECT COUNT(*) FROM R r, S s, T t "
        "WHERE r.B OVERLAPS s.B AND s.C OVERLAPS t.C AND r.A OVERLAPS t.A"
    )
    assert pickle.dumps(query) == before
    with WorkerPool(db, workers=1) as pool:
        assert pool.evaluate(query).result(timeout=120) == naive_evaluate(query, db)
        assert pool.count(query).result(timeout=120) == naive_count(query, db)
    assert pickle.dumps(query) == before
