"""A reduction's generic-join disjuncts run as one join per core key.

``count_disjunction`` must equal the sum of the per-disjunct counts of
``tests/oracles/ej.py`` and ``evaluate_disjunction`` their OR, whatever
the batching: on the catalog's cyclic shapes (one core key, several,
none), on overlapping data, shared endpoints, point intervals and
relations so small that variants come out empty, with every atom dense
(``KEY_LIMIT`` 1) or only the stacked ones, with an atom that shares no
variable, and for batches of one.  The disjuncts the generic join does
not run keep their ``evaluate_ej`` / ``count_ej`` calls, a warm
triangle count is one generic join per core key, and EXISTS runs a
key's members in batches of 1, 1, 2, 4, ... up to the first true one.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import os
from types import SimpleNamespace

import pytest
from oracles import ej as oracle

from repro.core import QuerySession, disjunct_eval, naive_count
from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction
from repro.engine import Database, JoinAtom, Relation, columnar_eval, ej
from repro.engine.columnar_eval import generic_batch_boolean, generic_batch_count
from repro.engine.ej import count_ej, evaluate_ej, generic_core, join_atoms_for
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce, shift_distinct_left
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


def _seed(index: int) -> int:
    return 10_000 * FUZZ_SEED + index


#: name -> (query, n): one core key (triangle, 4-cycle), none (the
#: 5-cycle decomposes), a core atom with no shared variable, and one key
#: beside Yannakakis disjuncts (LW4, with 18 keys, has its own test)
SHAPES = {
    "triangle": (catalog.triangle_ij(), 8),
    "cycle4": (catalog.cycle_ij(4), 6),
    "cycle5": (catalog.cycle_ij(5), 5),
    "loose": (parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C]) ∧ U([D])"), 6),
    "mixed": (catalog.figure9c_ij(), 5),
}

#: name -> random_database options, ``domain`` per row
REGIMES = {
    "overlapping": dict(domain=2.0, mean_length=6.0),
    "shared_endpoints": dict(domain=1.0, mean_length=2.0, integer=True),
    "points": dict(domain=3.0, mean_length=4.0, point_probability=0.5),
    "sparse": dict(domain=30.0, mean_length=2.0),
}


def _database(query, n, seed, regime):
    options = dict(REGIMES[regime])
    options["domain"] *= n
    return random_database(query, n, seed=seed, **options)


def _check(query, db):
    """Both heads against the per-disjunct oracles, on the plain
    reduction EXISTS reads and the disjoint one COUNT reads; returns the
    reductions."""
    plain = forward_reduce(query, db)
    disjoint = forward_reduce(
        query, shift_distinct_left(query, db), disjoint=True, provenance=True
    )
    _check_result(plain, count=False)
    _check_result(disjoint)
    return plain, disjoint


def _check_result(result, count=True):
    want = any(oracle.evaluate_ej(q, result.database) for q in result.ej_queries)
    assert evaluate_disjunction(result) == want
    if count:
        want = sum(oracle.count_ej(q, result.database) for q in result.ej_queries)
        assert count_disjunction(result) == want


def _subset(result, queries, database=None):
    """A disjunction of some of ``result``'s disjuncts, over its
    database or another."""
    database = result.database if database is None else database
    return SimpleNamespace(database=database, ej_queries=list(queries), disjunct_order=None)


def _keys(result, head="count"):
    return [generic_core(q, result.database, head) for q in result.ej_queries]


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_batched_disjunction_answers_like_its_disjuncts(shape, regime):
    query, n = SHAPES[shape]
    for seed in range(2):
        db = _database(query, n, _seed(seed), regime)
        _, disjoint = _check(query, db)
        assert count_disjunction(disjoint) == naive_count(query, db)


def test_the_shapes_cover_what_the_batching_distinguishes(monkeypatch):
    """One key, none, one beside Yannakakis disjuncts; an atom without a
    shared variable; and empty variants, left to ``count_ej`` unplanned."""
    distinct = {}
    for shape, (query, n) in SHAPES.items():
        _, disjoint = _check(query, _database(query, n, _seed(0), "overlapping"))
        keys = _keys(disjoint)
        distinct[shape] = len(set(keys) - {None})
        if shape == "loose":
            assert all(() in key for key in keys if key is not None)
        if shape == "mixed":
            assert None in keys
    assert distinct == {"triangle": 1, "cycle4": 1, "cycle5": 0, "loose": 1, "mixed": 1}
    query, n = SHAPES["triangle"]
    _, disjoint = _check(query, _database(query, n, _seed(1), "overlapping"))
    emptied = disjoint.ej_queries[0].atoms[0].relation
    database = Database(
        Relation(r.name, r.schema, ()) if r.name == emptied else r
        for r in disjoint.database
    )
    with_empty = _subset(disjoint, disjoint.ej_queries, database)
    _check_result(with_empty)
    reads = [emptied in q.relations for q in disjoint.ej_queries]
    assert 0 < sum(reads) < len(reads)
    planned = []
    real = ej.query_plan
    monkeypatch.setattr(ej, "query_plan", lambda q, *a: planned.append(q) or real(q, *a))
    assert [key is None for key in _keys(with_empty)] == reads
    assert planned == [q for q, read in zip(disjoint.ej_queries, reads) if not read]


def test_lw4_runs_one_join_per_core_key():
    """LW4 (n = 2): 18 core keys beside decomposed disjuncts.  Its
    reductions hold ~10**5 rows, too many for the tuple oracle on every
    disjunct: the batched generic-join disjuncts and a few decomposed
    ones answer like the same disjuncts run one by one, and batches of
    two keys like the oracle."""
    query = catalog.loomis_whitney4_ij()
    db = _database(query, 2, _seed(500), "points")
    for result in (
        forward_reduce(query, db),
        forward_reduce(
            query, shift_distinct_left(query, db), disjoint=True, provenance=True
        ),
    ):
        keys = _keys(result)
        groups: dict[tuple, list] = {}
        for q, key in zip(result.ej_queries, keys):
            if key is not None:
                groups.setdefault(key, []).append(q)
        assert len(groups) == 18
        some = [q for q, key in zip(result.ej_queries, keys) if key is None][:8]
        mixed = _subset(result, some + [q for g in groups.values() for q in g])
        assert count_disjunction(mixed) == sum(
            count_ej(q, result.database) for q in mixed.ej_queries
        )
        assert evaluate_disjunction(mixed) == any(
            evaluate_ej(q, result.database) for q in mixed.ej_queries
        )
        for key in sorted(groups)[:2]:
            members = groups[key][:4]
            batch = [join_atoms_for(q, result.database) for q in members]
            assert generic_batch_count(batch) == sum(
                oracle.count_ej(q, result.database) for q in members
            )


@pytest.mark.parametrize("limit", [1, 1 << 13, 1 << 17])
@pytest.mark.parametrize("shape", ["triangle", "cycle4", "loose", "mixed"])
def test_dense_and_stacked_dense_atoms(monkeypatch, shape, limit):
    """``KEY_LIMIT`` 1 makes every atom dense; the middle limits make a
    join's own rows pack while the stacked batch's do not, so the same
    variant is keyed both ways."""
    query, n = SHAPES[shape]
    monkeypatch.setattr(columnar_eval, "KEY_LIMIT", limit)
    for seed, regime in enumerate(("overlapping", "shared_endpoints", "sparse")):
        _check(query, _database(query, n, _seed(100 + seed), regime))


def test_groups_of_one():
    """An EJ query reduces to itself: a batch of one, EXISTS running its
    lead alone and nothing after it."""
    query = catalog.triangle_ej()
    for seed in range(3):
        db = random_database(query, 12, seed=_seed(200 + seed), domain=12.0)
        plain, disjoint = _check(query, db)
        assert len(plain.ej_queries) == len(_keys(plain)) == 1
        assert _keys(plain) != [None]


def test_a_batch_of_one_reads_its_memoized_tries_uncopied():
    """No disjunct level and no stacking for one join: its state holds
    the very arrays its blocks memoize, so a per-disjunct call costs
    what it did before batching.  Two joins stack copies under δ, each
    level when a traversal first reads it: joins that die before the
    last core level never stack it."""
    query, n = SHAPES["triangle"]
    _, disjoint = _check(query, _database(query, n, _seed(700), "overlapping"))
    joins = [join_atoms_for(q, disjoint.database) for q in disjoint.ej_queries[:2]]
    for batch in ([joins[0]], joins):
        parts, order, radix_of, _, _ = columnar_eval._generic_setup(batch, None, core=True)
        state = columnar_eval._sort_parts(parts, order, radix_of, counting=True)
        memoized = [
            [level for key, (_, trie) in part.block._derived.items()
             if key[0] == "trie" for level in trie[0]]
            for part in parts[0]
        ]
        levels = [[stack[d] for d in range(len(stack))] for stack in state.prefixes]
        shared = [
            any(level is own for level in stack for own in tries)
            for stack, tries in zip(levels, memoized)
        ]
        assert shared == [len(batch) == 1] * len(parts[0])
        assert (state.advancing[0] == []) == (len(batch) == 1)
    # two joins that agree on A and die at B: C is never stacked
    apart = [
        [
            JoinAtom(Relation(name, schema, [row]))
            for name, schema, row in zip("RST", (("A", "B"), ("B", "C"), ("A", "C")), rows)
        ]
        for rows in (((0, 1), (5, 6), (0, 6)), ((1, 2), (7, 8), (1, 8)))
    ]
    for counting in (False, True):
        parts, order, radix_of, _, _ = columnar_eval._generic_setup(apart, None, core=True)
        state = columnar_eval._sort_parts(parts, order, radix_of, counting=counting)
        if counting:
            assert columnar_eval._levelwise_join(state)[1].sum() == 0
        else:
            assert not columnar_eval._has_witness(state)
        assert [len(stack) for stack in state.prefixes] == [3, 3, 3]  # δ + 2 each
        assert [len(stack.levels) for stack in state.prefixes] == [3, 2, 2]


def _join(r_rows, u_rows):
    return [
        JoinAtom(Relation("R", ("A", "B"), r_rows)),
        JoinAtom(Relation("S", ("B", "A"), [(b, a) for a, b in r_rows])),
        JoinAtom(Relation("U", ("D",), u_rows)),
    ]


def test_an_atom_without_shared_variables_weights_and_drops_its_joins():
    """``U`` shares no variable: it multiplies its own join's count by
    its rows and, empty, empties that join alone."""
    rows = [(1, 2), (2, 3), (3, 3)]
    dead, live = _join(rows, []), _join(rows[:2], [(7,), (8,)])
    assert generic_batch_boolean([dead]) is False
    assert generic_batch_count([dead]) == 0
    for batch in ([dead, live], [live, dead]):
        assert generic_batch_count(batch) == sum(
            oracle.generic_join_count(join) for join in batch
        ) == 4
        assert generic_batch_boolean(batch) is True
    assert generic_batch_boolean([dead, dead]) is False


def _record_joins(monkeypatch, sizes):
    """Append the batch size of every generic join run from here on."""
    real = columnar_eval._sort_parts
    monkeypatch.setattr(
        columnar_eval,
        "_sort_parts",
        lambda batch, *args, **kw: sizes.append(len(batch)) or real(batch, *args, **kw),
    )


def test_only_the_generic_disjuncts_leave_the_per_disjunct_calls(monkeypatch):
    """Yannakakis disjuncts, and those over an empty variant, make the
    ``count_ej`` / ``evaluate_ej`` calls they always made; each core key
    is one generic join."""
    query, n = SHAPES["mixed"]
    plain, disjoint = _check(query, _database(query, n, _seed(300), "sparse"))
    calls = {"count_ej": [], "evaluate_ej": [], "join": []}
    for name in ("count_ej", "evaluate_ej"):
        real = getattr(disjunct_eval, name)
        monkeypatch.setattr(
            disjunct_eval,
            name,
            lambda q, db, real=real, name=name: calls[name].append(q) or real(q, db),
        )
    _record_joins(monkeypatch, calls["join"])
    count_disjunction(disjoint)
    keys = _keys(disjoint)
    assert calls["count_ej"] == [q for q, k in zip(disjoint.ej_queries, keys) if k is None]
    assert sorted(calls["join"]) == sorted(
        keys.count(key) for key in set(keys) - {None}
    )
    if not evaluate_disjunction(plain):  # every disjunct was visited
        keys = _keys(plain, "boolean")
        assert len(calls["evaluate_ej"]) == keys.count(None)


@pytest.mark.parametrize("regime", ["overlapping", "sparse"])
@pytest.mark.parametrize("shape", ["triangle", "cycle4"])
def test_exists_runs_each_batch_as_large_as_all_before_it(monkeypatch, shape, regime):
    """One core key: EXISTS runs its ranked members in batches of 1, 1,
    2, 4, ..., reading each key and binding each batch when it is
    reached; the last batch run holds the first true disjunct, or the
    disjunction is false and every member ran."""
    query, n = SHAPES[shape]
    plain = forward_reduce(query, _database(query, n, _seed(600), regime))
    ranked = disjunct_eval.ranked_disjuncts(plain)
    assert len(set(_keys(plain, "boolean"))) == 1 and None not in _keys(plain)
    truth = [oracle.evaluate_ej(q, plain.database) for q in ranked]
    sizes, keyed, bound = [], [], []
    _record_joins(monkeypatch, sizes)
    for name, seen in (("generic_core", keyed), ("join_atoms_for", bound)):
        real = getattr(disjunct_eval, name)
        monkeypatch.setattr(
            disjunct_eval,
            name,
            lambda q, *args, real=real, seen=seen: seen.append(q) or real(q, *args),
        )
    assert evaluate_disjunction(plain) == any(truth)
    assert all(size == max(1, sum(sizes[:i])) for i, size in enumerate(sizes[:-1]))
    assert 0 < sizes[-1] <= max(1, sum(sizes[:-1]))
    assert keyed == bound == ranked[: sum(sizes)]
    if any(truth):
        assert sum(sizes[:-1]) <= truth.index(True) < sum(sizes)
    else:
        assert sum(sizes) == len(ranked)


def test_a_warm_triangle_count_is_one_generic_join_per_core_key(tmp_path, monkeypatch):
    query = catalog.triangle_ij()
    db = random_database(query, 20, seed=_seed(400), domain=160.0)
    want = QuerySession(db, cache_dir=tmp_path).count(query)
    sizes = []
    _record_joins(monkeypatch, sizes)
    warm = QuerySession(db, cache_dir=tmp_path)
    assert warm.count(query) == want == naive_count(query, db)
    assert (warm.stats.persistent_hits, warm.stats.reductions) == (1, 0)
    keys = _keys(warm.reduction(query))
    assert set(keys) - {None} and len(set(keys) - {None}) == len(sizes) == 1
    assert sizes == [len(keys) - keys.count(None)]
