"""Differential pins for the EJ evaluation engine
(:mod:`repro.engine.columnar_eval`).

The kernels — the Boolean semijoin sweep, the vectorized counting DP,
the sorted-array generic join, and the mask-sweep full reducer — must
be *bit/count-identical* to the tuple implementations kept under
``tests/oracles``:

* per reduced EJ disjunct, Boolean sweep ≡ tuple semijoin sweep, array
  count ≡ dict-of-tuples DP ≡ trie ``generic_join_count``, and array
  full evaluation ≡ tuple ``yannakakis_full`` (schema and tuple set);
* end to end, ``count_ij`` / ``witnesses_ij`` agree with the oracle
  dispatch (``oracles.ej``) and with the strategy-free naive oracle;
* the same identities hold on artifacts *after* ``apply_delta``
  patches — which run on the code matrices, so every relation keeps its
  block over the one shared codebook — and on **memmap-warm** artifacts
  rebuilt from serialized v5 cache frames.

Reading an artifact's ``.tuples`` is a decoded view that leaves its
block in place, so the kernels and the oracles look at the very same
artifact.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix — the
scenario generators are imported from ``test_differential_cache`` so
each matrix cell pins the kernels on the same query/database family it
fuzzes the caches with.
"""

import random
import tempfile
from pathlib import Path

import networkx as nx
import pytest
from oracles import ej as oracle
from test_columnar_bags import _relation
from test_differential_cache import (
    SCENARIOS,
    _patchable_deltas,
    build_database,
    random_queries,
    scenario_seed,
)

from repro.core import naive_count
from repro.core.baselines import naive_witnesses
from repro.core.cache_format import load_result, serialize_result
from repro.core.disjunct_eval import count_disjunction
from repro.core.ij_engine import count_ij, witnesses_ij
from repro.core.reduction_cache import FORMAT_VERSION
from repro.engine import (
    JoinAtom,
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    generic_join_count,
)
from repro.engine.ej import (
    count_ej,
    evaluate_ej,
    evaluate_ej_full,
    join_atoms_for,
    plan_ej,
)
from repro.engine.relation import Database, Relation
from repro.intervals import Interval
from repro.queries import parse_query
from repro.reduction import (
    DomainChanged,
    forward_reduce,
    shift_distinct_left,
)
from repro.reduction.columnar import COL_CODE, COL_ID, CodeBook


def _acyclic_disjuncts(result):
    """(ej_query, index_tree) for every α-acyclic disjunct."""
    out = []
    for ej in result.ej_queries:
        plan = plan_ej(ej.hypergraph())
        if plan.method == "yannakakis":
            out.append((ej, plan.tree))
    return out


def _witness_set(witnesses):
    return sorted(repr(w) for w in witnesses)


def _assert_blocks(result):
    """Every relation of the artifact holds its block over the one
    shared codebook — whatever has looked at it since it was built."""
    book = result.codebook
    for relation in result.database:
        assert relation.columnar is not None, relation.name
        assert relation.columnar.book is book, relation.name


# ----------------------------------------------------------------------
# deterministic agreement on a plain interval workload
# ----------------------------------------------------------------------


def _engagement_db(seed: int = 3) -> Database:
    rng = random.Random(seed)

    def iv():
        lo = rng.randint(0, 12)
        return Interval(lo, lo + rng.randint(0, 3))

    def rows(n, width):
        out = set()
        while len(out) < n:
            out.add(tuple(iv() for _ in range(width)))
        return out

    return Database(
        [
            Relation("R", ["a1"], rows(20, 1)),
            Relation("S", ["b1", "b2"], rows(25, 2)),
            Relation("T", ["c1"], rows(20, 1)),
        ]
    )


def test_kernels_engage_on_columnar_disjuncts():
    """On an all-interval acyclic query every kernel matches its oracle
    on every reduced disjunct, and the oracles' tuple reads leave the
    artifact's blocks in place."""
    query = parse_query("R([A]) & S([A],[B]) & T([B])")
    db = _engagement_db()
    result = forward_reduce(query, db, disjoint=False, provenance=True)
    disjuncts = _acyclic_disjuncts(result)
    assert disjuncts
    for ej, tree in disjuncts:
        atoms = join_atoms_for(ej, result.database)
        count = columnar_yannakakis_count(atoms, tree)
        assert count == oracle.yannakakis_count(atoms, tree)
        assert columnar_yannakakis_boolean(atoms, tree) is (count > 0)
        assert generic_join_count(atoms) == count
        full = columnar_yannakakis_full(atoms, tree)
        reference = oracle.yannakakis_full(atoms, tree)
        assert full.schema == reference.schema
        assert full.tuples == reference.tuples
    _assert_blocks(result)


# ----------------------------------------------------------------------
# the Boolean sweep, kernel-level: hand-built edge cases
# ----------------------------------------------------------------------


def _coded_atoms(relations):
    """``JoinAtom`` s over hand-built block-backed relations on one
    identity codebook (code ``i`` decodes to ``i``), so a verbatim id
    column and a code column decode to comparable values."""
    book = CodeBook(range(16))
    return [
        JoinAtom(
            _relation(
                name,
                list(schema),
                rows,
                kinds[0] if kinds else (COL_CODE,) * len(schema),
                book,
            )
        )
        for name, schema, rows, *kinds in relations
    ]


#: name -> (relations, join-tree edges, the answer)
BOOLEAN_SWEEP_CASES = {
    # R-S share nothing: a non-empty child never filters its parent
    "cartesian_edge": (
        [("R", "AB", [(0, 1), (2, 3)]), ("S", "C", [(5,)]), ("T", "B", [(3,)])],
        [(0, 1), (0, 2)],
        True,
    ),
    # T empties S (no C in common), which must empty R two levels up
    "emptied_child": (
        [
            ("R", "AB", [(0, 1), (2, 3)]),
            ("S", "BC", [(1, 7), (3, 8)]),
            ("T", "C", [(9,)]),
        ],
        [(0, 1), (1, 2)],
        False,
    ),
    "emptied_child_behind_a_cartesian_edge": (
        [("R", "A", [(0,)]), ("S", "B", [(1,), (2,)]), ("T", "B", [(3,)])],
        [(0, 1), (1, 2)],
        False,
    ),
    # B is a code in R and a verbatim id in S: raw cells are
    # incomparable, so the kernel must re-encode, never compare them
    "verbatim_id_shared_column": (
        [
            ("R", "AB", [(0, 1)]),
            ("S", "BC", [(1, 2)], (COL_ID, COL_CODE)),
        ],
        [(0, 1)],
        True,
    ),
    # a forest: every component's root must survive
    "forest_all_components_survive": (
        [
            ("R", "A", [(0,)]),
            ("S", "B", [(1,)]),
            ("T", "C", [(2,), (3,)]),
            ("U", "C", [(3,)]),
        ],
        [(2, 3)],
        True,
    ),
    "forest_last_component_dies": (
        [
            ("R", "A", [(0,)]),
            ("S", "B", [(1,)]),
            ("T", "C", [(2,), (3,)]),
            ("U", "C", [(4,)]),
        ],
        [(2, 3)],
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_SWEEP_CASES))
def test_boolean_sweep_edge_cases(case):
    relations, edges, expected = BOOLEAN_SWEEP_CASES[case]
    tree = nx.Graph()
    tree.add_nodes_from(range(len(relations)))
    tree.add_edges_from(edges)
    atoms = _coded_atoms(relations)
    assert columnar_yannakakis_boolean(atoms, tree) is expected
    assert oracle.yannakakis_boolean(atoms, tree) is expected


# ----------------------------------------------------------------------
# fuzz-matrix differential pins
# ----------------------------------------------------------------------


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_boolean_sweep_matches_tuple_sweep(index):
    """``columnar_yannakakis_boolean`` ≡ the oracle's tuple sweep per
    acyclic disjunct of the fuzz-seed scenario family (plain and
    disjoint/provenance reductions)."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    checked = 0
    for query in queries:
        for disjoint, provenance in ((False, False), (True, True)):
            result = forward_reduce(query, db, disjoint, provenance)
            for ej, tree in _acyclic_disjuncts(result):
                atoms = join_atoms_for(ej, result.database)
                checked += 1
                assert columnar_yannakakis_boolean(
                    atoms, tree
                ) is oracle.yannakakis_boolean(atoms, tree), (
                    seed,
                    query.name,
                    ej.name,
                )
            _assert_blocks(result)
    assert checked, f"seed={seed}: no acyclic disjunct"


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_counting_kernels_match_dict_dp_and_trie(index):
    """Array count ≡ dict DP ≡ trie ``generic_join_count`` ≡ array
    generic join per acyclic disjunct, and ``count_ij`` end to end ≡
    the oracle dispatch ≡ naive, across the fuzz-seed scenario family."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        result = forward_reduce(
            query, shift_distinct_left(query, db), disjoint=True,
            provenance=True,
        )
        for ej, tree in _acyclic_disjuncts(result):
            atoms = join_atoms_for(ej, result.database)
            expected = oracle.yannakakis_count(atoms, tree)
            context = (seed, query.name, ej.name)
            assert columnar_yannakakis_count(atoms, tree) == expected, context
            assert oracle.generic_join_count(atoms) == expected, context
            assert generic_join_count(atoms) == expected, context
        oracle_total = sum(
            oracle.count_ej(ej, result.database) for ej in result.ej_queries
        )
        assert count_ij(query, db) == oracle_total == naive_count(query, db), (
            seed,
            query.name,
        )
        _assert_blocks(result)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_full_evaluation_matches_tuple_path(index):
    """Array full evaluation ≡ tuple ``yannakakis_full`` per acyclic
    disjunct (schema + tuple set), the public dispatch ≡ the oracle
    dispatch with an output projection, and the end-to-end witness
    pipeline agrees with the naive witness oracle."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        result = forward_reduce(query, db, disjoint=True, provenance=True)
        for ej, tree in _acyclic_disjuncts(result):
            atoms = join_atoms_for(ej, result.database)
            fast = columnar_yannakakis_full(atoms, tree)
            reference = oracle.yannakakis_full(atoms, tree)
            assert fast.schema == reference.schema, (seed, ej.name)
            assert fast.tuples == reference.tuples, (seed, ej.name)
        # projected full evaluation through the public dispatch
        projected = forward_reduce(query, db, disjoint=False)
        for ej in projected.ej_queries:
            output = [v.name for v in ej.variables][:2]
            got = evaluate_ej_full(ej, projected.database, output=output)
            want = oracle.evaluate_ej_full(
                ej, projected.database, output=output
            )
            assert got.schema == want.schema, (seed, ej.name)
            assert got.tuples == want.tuples, (seed, ej.name)
        assert _witness_set(witnesses_ij(query, db)) == _witness_set(
            naive_witnesses(query, db)
        ), (seed, query.name)
        _assert_blocks(result)
        _assert_blocks(projected)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_kernels_agree_after_apply_delta(index):
    """``apply_delta`` patches an artifact on its arrays, so after
    every successful patch every relation still holds its block over
    the one shared codebook, and the public dispatch, the array generic
    join and (on acyclic disjuncts) the counting DP all answer with the
    oracle's values on the patched artifact."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    patched_any = False
    for query in queries:
        result = forward_reduce(query, db, disjoint=False, provenance=True)
        deltas = _patchable_deltas(random.Random(seed + 1), query, db, result)
        for delta in deltas:
            try:
                result.apply_delta(delta)
            except DomainChanged:
                continue
            patched_any = True
            _assert_blocks(result)
            acyclic = dict(
                (ej.name, tree) for ej, tree in _acyclic_disjuncts(result)
            )
            for ej in result.ej_queries:
                context = (seed, query.name, ej.name, delta)
                want_count = oracle.count_ej(ej, result.database)
                want_full = oracle.evaluate_ej_full(ej, result.database)
                assert count_ej(ej, result.database) == want_count, context
                assert evaluate_ej(
                    ej, result.database
                ) == oracle.evaluate_ej(ej, result.database), context
                got_full = evaluate_ej_full(ej, result.database)
                assert got_full.schema == want_full.schema
                assert got_full.tuples == want_full.tuples, context
                atoms = join_atoms_for(ej, result.database)
                assert generic_join_count(atoms) == want_count, context
                if ej.name in acyclic:
                    dp = columnar_yannakakis_count(atoms, acyclic[ej.name])
                    assert dp == want_count, context
            _assert_blocks(result)
    assert patched_any, f"seed={seed}: no delta patch exercised"


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_memmap_warm_artifacts_count_identically(index):
    """Serialize each disjoint reduction to a v5 frame, load it back as
    a memmap-backed artifact, and pin the warm array count — per
    disjunct and via ``count_disjunction`` — against the dict DP over
    the cold artifact and the naive oracle."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        shifted = shift_distinct_left(query, db)
        cold = forward_reduce(
            query, shifted, disjoint=True, provenance=True
        )
        frame = serialize_result(cold, FORMAT_VERSION)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "entry.bin"
            path.write_bytes(frame)
            warm = load_result(path, FORMAT_VERSION)
            assert warm is not None, (seed, query.name)
            _assert_blocks(warm)
            for (ej, tree), (cold_ej, _) in zip(
                _acyclic_disjuncts(warm), _acyclic_disjuncts(cold)
            ):
                fast = columnar_yannakakis_count(
                    join_atoms_for(ej, warm.database), tree
                )
                expected = oracle.yannakakis_count(
                    join_atoms_for(cold_ej, cold.database), tree
                )
                assert fast == expected, (seed, query.name, ej.name)
            cold_total = sum(
                oracle.count_ej(ej, cold.database) for ej in cold.ej_queries
            )
            assert (
                count_disjunction(warm) == cold_total == naive_count(query, db)
            ), (seed, query.name)
            _assert_blocks(warm)
