"""Differential pins for the columnar evaluation tier
(:mod:`repro.engine.columnar_eval`).

The evaluation kernels — the Boolean semijoin sweep, the vectorized
counting DP, the sorted-column-array generic join, and the mask-sweep
full reducer — must be *bit/count-identical* to the retained tuple
implementations, which stay in the tree as the oracles:

* per reduced EJ disjunct, columnar Boolean ≡ tuple semijoin sweep,
  columnar count ≡ dict-of-tuples DP ≡
  trie-based ``generic_join_count``, and columnar full evaluation ≡
  tuple ``yannakakis_full`` (schema and tuple set);
* end to end, ``count_ij`` / ``witnesses_ij`` answer identically with
  the kernels on and forced off (``use_columnar_kernels``), and agree
  with the strategy-free naive oracle;
* the same identities hold on artifacts *after* ``apply_delta``
  patches — which run on the code matrices, so the patched relations
  are still columnar and the kernels must still **engage** (one
  explicit row-backed case pins the fallback) — and on **memmap-warm**
  artifacts rebuilt from serialized v5 cache frames.

Tuple oracles materialize relations (a ``.tuples`` touch drops the
column block), so every comparison runs the columnar kernel on one
artifact and its oracle on an independently-built twin.

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
    columnar_generic_join_count,
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    use_columnar_kernels,
)
from repro.engine.columnar_eval import atom_blocks
from repro.engine.ej import (
    _label_tree_to_index_tree,
    count_ej,
    evaluate_ej,
    evaluate_ej_full,
    join_atoms_for,
)
from repro.engine.generic_join import generic_join_count
from repro.engine.relation import Database, Relation
from repro.engine.yannakakis import (
    yannakakis_boolean,
    yannakakis_count,
    yannakakis_full,
)
from repro.hypergraph.acyclicity import join_tree
from repro.intervals import Interval
from repro.queries import parse_query
from repro.reduction import (
    DomainChanged,
    forward_reduce,
    shift_distinct_left,
)
from repro.reduction.columnar import COL_CODE, COL_ID, CodeBook
from repro.workloads import random_database


def _acyclic_disjuncts(result):
    """(ej_query, index_tree) for every α-acyclic disjunct."""
    out = []
    for ej in result.ej_queries:
        tree = join_tree(ej.hypergraph())
        if tree is not None:
            out.append((ej, _label_tree_to_index_tree(ej, tree)))
    return out


def _witness_set(witnesses):
    return sorted(repr(w) for w in witnesses)


# ----------------------------------------------------------------------
# deterministic engagement: the kernels must actually run (and agree)
# on a plain interval workload, not just fall back everywhere
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
    """On an all-interval acyclic query, every reduced disjunct is
    columnar end to end: all three kernels must engage (no silent
    always-fallback) and match their oracles exactly."""
    query = parse_query("R([A]) & S([A],[B]) & T([B])")
    db = _engagement_db()
    kernel_side = forward_reduce(query, db, disjoint=False, provenance=True)
    oracle_side = forward_reduce(query, db, disjoint=False, provenance=True)
    disjuncts = _acyclic_disjuncts(kernel_side)
    assert disjuncts
    for (ej, tree), oracle_ej in zip(disjuncts, oracle_side.ej_queries):
        atoms = join_atoms_for(ej, kernel_side.database)
        boolean = columnar_yannakakis_boolean(atoms, tree)
        count = columnar_yannakakis_count(atoms, tree)
        generic = columnar_generic_join_count(
            join_atoms_for(ej, kernel_side.database)
        )
        full = columnar_yannakakis_full(
            join_atoms_for(ej, kernel_side.database), tree
        )
        assert boolean is not None, ej.name
        assert count is not None, ej.name
        assert generic is not None, ej.name
        assert full is not None, ej.name
        oracle_atoms = join_atoms_for(oracle_ej, oracle_side.database)
        assert count == yannakakis_count(oracle_atoms, tree)
        assert boolean is (count > 0)
        assert generic == count
        reference = yannakakis_full(
            join_atoms_for(oracle_ej, oracle_side.database), tree
        )
        assert full.schema == reference.schema
        assert full.tuples == reference.tuples


def test_kill_switch_forces_the_tuple_tier():
    query = parse_query("R([A]) & S([A],[B]) & T([B])")
    db = _engagement_db(seed=9)
    result = forward_reduce(query, db, disjoint=False)
    ej, tree = _acyclic_disjuncts(result)[0]
    atoms = join_atoms_for(ej, result.database)
    with use_columnar_kernels(False):
        assert columnar_yannakakis_boolean(atoms, tree) is None
        assert columnar_yannakakis_count(atoms, tree) is None
        assert columnar_generic_join_count(atoms) is None
        assert columnar_yannakakis_full(atoms, tree) is None
    # the toggle restores itself — and the block survived the off-pass
    assert columnar_yannakakis_count(atoms, tree) is not None


def test_kill_switch_reaches_the_tuple_boolean_sweep(monkeypatch):
    """With the kernels off, an acyclic Boolean disjunct over columnar
    relations must be answered by ``yannakakis_boolean`` — otherwise
    every "kernels ≡ tuple tier" Boolean differential compares the
    array sweep with itself."""
    import repro.engine.ej as ej_module

    calls = []

    def spy(atoms, tree):
        calls.append(len(atoms))
        return yannakakis_boolean(atoms, tree)

    monkeypatch.setattr(ej_module, "yannakakis_boolean", spy)
    query = parse_query("R([A],[B]) & S([B],[C])")
    result = forward_reduce(query, random_database(query, 12, seed=5))
    ej = result.ej_queries[0]
    on = evaluate_ej(ej, result.database)
    assert calls == []  # kernels on: the array sweep answered
    with use_columnar_kernels(False):
        off = evaluate_ej(ej, result.database)
    assert calls == [2]
    assert on == off


# ----------------------------------------------------------------------
# the Boolean sweep, kernel-level: hand-built edge cases
# ----------------------------------------------------------------------


def _coded_atoms(relations):
    """``JoinAtom`` s over hand-built columnar relations on one identity
    codebook (code ``i`` decodes to ``i``), so a verbatim id column and
    a code column hold comparable values on the tuple path.  Built fresh
    per call: the tuple oracle's ``.tuples`` touch drops the blocks."""
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


#: name -> (relations, join-tree edges, what the kernel must answer)
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
    # B is a code in R and a verbatim id in S: raw ints are incomparable,
    # so the kernel must decline (None), never guess a Boolean
    "verbatim_id_shared_column": (
        [
            ("R", "AB", [(0, 1)]),
            ("S", "BC", [(1, 2)], (COL_ID, COL_CODE)),
        ],
        [(0, 1)],
        None,
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
    assert columnar_yannakakis_boolean(_coded_atoms(relations), tree) is expected
    if expected is not None:
        assert yannakakis_boolean(_coded_atoms(relations), tree) is expected


# ----------------------------------------------------------------------
# fuzz-matrix differential pins
# ----------------------------------------------------------------------


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_boolean_sweep_matches_tuple_sweep(index):
    """``columnar_yannakakis_boolean`` ≡ ``yannakakis_boolean`` per
    acyclic disjunct of the fuzz-seed scenario family (plain and
    disjoint/provenance reductions)."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    engaged = 0
    for query in queries:
        for disjoint, provenance in ((False, False), (True, True)):
            kernel_side = forward_reduce(query, db, disjoint, provenance)
            oracle_side = forward_reduce(query, db, disjoint, provenance)
            for (ej, tree), oracle_ej in zip(
                _acyclic_disjuncts(kernel_side), oracle_side.ej_queries
            ):
                fast = columnar_yannakakis_boolean(
                    join_atoms_for(ej, kernel_side.database), tree
                )
                if fast is None:
                    continue
                engaged += 1
                assert fast is yannakakis_boolean(
                    join_atoms_for(oracle_ej, oracle_side.database), tree
                ), (seed, query.name, ej.name)
    assert engaged, f"seed={seed}: the Boolean sweep never engaged"



@pytest.mark.parametrize("index", range(SCENARIOS))
def test_counting_kernels_match_dict_dp_and_trie(index):
    """Columnar count ≡ dict DP ≡ trie ``generic_join_count`` per
    acyclic disjunct, and ``count_ij`` end to end ≡ kernels-off ≡
    naive, across the fuzz-seed scenario family."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        kernel_side = forward_reduce(query, db, disjoint=True, provenance=True)
        dict_side = forward_reduce(query, db, disjoint=True, provenance=True)
        trie_side = forward_reduce(query, db, disjoint=True, provenance=True)
        for (ej, tree), dict_ej, trie_ej in zip(
            _acyclic_disjuncts(kernel_side),
            dict_side.ej_queries,
            trie_side.ej_queries,
        ):
            fast = columnar_yannakakis_count(
                join_atoms_for(ej, kernel_side.database), tree
            )
            expected = yannakakis_count(
                join_atoms_for(dict_ej, dict_side.database), tree
            )
            if fast is not None:
                assert fast == expected, (seed, query.name, ej.name)
            with use_columnar_kernels(False):
                trie = generic_join_count(
                    join_atoms_for(trie_ej, trie_side.database)
                )
            assert trie == expected, (seed, query.name, ej.name)
        total = count_ij(query, db)
        with use_columnar_kernels(False):
            tuple_total = count_ij(query, db)
        assert total == tuple_total == naive_count(query, db), (
            seed,
            query.name,
        )


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_full_evaluation_matches_tuple_path(index):
    """Columnar full evaluation ≡ tuple ``yannakakis_full`` per acyclic
    disjunct (schema + tuple set, with and without output projection),
    and the end-to-end witness pipeline is identical with the kernels
    forced off — and agrees with the naive witness oracle."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    for query in queries:
        kernel_side = forward_reduce(query, db, disjoint=True, provenance=True)
        oracle_side = forward_reduce(query, db, disjoint=True, provenance=True)
        for (ej, tree), oracle_ej in zip(
            _acyclic_disjuncts(kernel_side), oracle_side.ej_queries
        ):
            fast = columnar_yannakakis_full(
                join_atoms_for(ej, kernel_side.database), tree
            )
            if fast is None:
                continue
            reference = yannakakis_full(
                join_atoms_for(oracle_ej, oracle_side.database), tree
            )
            assert fast.schema == reference.schema, (seed, ej.name)
            assert fast.tuples == reference.tuples, (seed, ej.name)
        # projected full evaluation through the public dispatch
        projected_kernel = forward_reduce(query, db, disjoint=False)
        projected_oracle = forward_reduce(query, db, disjoint=False)
        for ej_k, ej_o in zip(
            projected_kernel.ej_queries, projected_oracle.ej_queries
        ):
            output = [v.name for v in ej_k.variables][:2]
            got = evaluate_ej_full(
                ej_k, projected_kernel.database, output=output
            )
            with use_columnar_kernels(False):
                want = evaluate_ej_full(
                    ej_o, projected_oracle.database, output=output
                )
            assert got.schema == want.schema, (seed, ej_k.name)
            assert got.tuples == want.tuples, (seed, ej_k.name)
        fast_witnesses = _witness_set(witnesses_ij(query, db))
        with use_columnar_kernels(False):
            tuple_witnesses = _witness_set(witnesses_ij(query, db))
        assert fast_witnesses == tuple_witnesses, (seed, query.name)
        assert fast_witnesses == _witness_set(
            naive_witnesses(query, db)
        ), (seed, query.name)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_kernels_agree_after_apply_delta(index):
    """``apply_delta`` patches a columnar artifact on its arrays, so
    after every successful patch the kernels still *engage*: every
    disjunct that was columnar keeps its blocks over the one shared
    codebook, the counting DP answers (not ``None``) on every acyclic
    one and the array generic join on every one — with the oracle's
    counts.  The public dispatch (kernels on) then agrees with the
    kernels-off answers on an identically patched twin."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    patched_any = False
    for query in queries:
        # kernels only — never handed to a consumer that could
        # materialize it, so it is columnar iff the patch kept it so
        engage_side = forward_reduce(query, db, disjoint=False, provenance=True)
        kernel_side = forward_reduce(query, db, disjoint=False, provenance=True)
        oracle_side = forward_reduce(query, db, disjoint=False, provenance=True)
        # point-only atoms are plain tuple relations from the start:
        # only disjuncts that were columnar can (and must) stay so
        columnar_before = {
            ej.name: atom_blocks(join_atoms_for(ej, engage_side.database))
            is not None
            for ej in engage_side.ej_queries
        }
        deltas = _patchable_deltas(
            random.Random(seed + 1), query, db, oracle_side
        )
        for delta in deltas:
            try:
                kernel_side.apply_delta(delta)
            except DomainChanged:
                continue
            assert engage_side.apply_delta(delta) == {}, delta
            oracle_side.apply_delta(delta)
            patched_any = True
            acyclic = dict(
                (ej.name, tree) for ej, tree in _acyclic_disjuncts(engage_side)
            )
            for ej_e, ej_k, ej_o in zip(
                engage_side.ej_queries,
                kernel_side.ej_queries,
                oracle_side.ej_queries,
            ):
                got_count = count_ej(ej_k, kernel_side.database)
                got_bool = evaluate_ej(ej_k, kernel_side.database)
                got_full = evaluate_ej_full(ej_k, kernel_side.database)
                with use_columnar_kernels(False):
                    want_count = count_ej(ej_o, oracle_side.database)
                    want_bool = evaluate_ej(ej_o, oracle_side.database)
                    want_full = evaluate_ej_full(ej_o, oracle_side.database)
                assert got_count == want_count, (seed, query.name, delta)
                assert got_bool == want_bool, (seed, query.name, delta)
                assert got_full.schema == want_full.schema
                assert got_full.tuples == want_full.tuples, (
                    seed,
                    query.name,
                    delta,
                )
                atoms = join_atoms_for(ej_e, engage_side.database)
                assert (atom_blocks(atoms) is not None) == columnar_before[
                    ej_e.name
                ], (seed, ej_e.name, delta)
                if not columnar_before[ej_e.name]:
                    continue
                generic = columnar_generic_join_count(atoms)
                assert generic == want_count, (seed, ej_e.name, delta)
                if ej_e.name in acyclic:
                    dp = columnar_yannakakis_count(atoms, acyclic[ej_e.name])
                    assert dp is not None, (seed, ej_e.name, delta)
                    assert dp == want_count, (seed, ej_e.name, delta)
    assert patched_any, f"seed={seed}: no delta patch exercised"


def test_row_backed_artifact_falls_back_after_apply_delta():
    """The explicit fallback case: once a tuple-tier consumer has
    materialized a variant, a patch takes the row path for it, the
    kernels decline (``None``), and the dispatch answers through the
    tuple tier — correctly."""
    query = parse_query("R([A]) & S([A],[B]) & T([B])")
    db = _engagement_db(seed=5)
    row_side = forward_reduce(query, db, disjoint=False, provenance=True)
    oracle_side = forward_reduce(query, db, disjoint=False, provenance=True)
    for relation in row_side.database:
        relation.tuples  # materialize: every block is dropped
    victim = sorted(db["S"].tuples, key=repr)[0]
    delta = db.delete("S", victim)
    fallbacks = row_side.apply_delta(delta)
    assert fallbacks == {"row_backed": len(row_side.atom_variants["S"])}
    assert oracle_side.apply_delta(delta) == {}
    for (ej, tree), oracle_ej in zip(
        _acyclic_disjuncts(row_side), oracle_side.ej_queries
    ):
        atoms = join_atoms_for(ej, row_side.database)
        assert columnar_yannakakis_count(atoms, tree) is None
        assert count_ej(ej, row_side.database) == columnar_yannakakis_count(
            join_atoms_for(oracle_ej, oracle_side.database), tree
        )
    assert count_disjunction(row_side) == count_disjunction(oracle_side)


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_memmap_warm_artifacts_count_identically(index):
    """Serialize each disjoint reduction to a v5 frame, load it back as
    a memmap-backed artifact, and pin the warm columnar count — per
    disjunct and via ``count_disjunction`` — against the cold dict DP
    twin and the naive oracle."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    checked = False
    for query in queries:
        shifted = shift_distinct_left(query, db)
        cold = forward_reduce(
            query, shifted, disjoint=True, provenance=True
        )
        try:
            frame = serialize_result(cold, FORMAT_VERSION)
        except Exception:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "entry.bin"
            path.write_bytes(frame)
            warm = load_result(path, FORMAT_VERSION)
            assert warm is not None, (seed, query.name)
            checked = True
            # warm relations come back columnar (memmap-backed blocks);
            # point-only variants are stored as plain tuple relations on
            # both sides, so require blocks only where the cold artifact
            # has them
            for cold_rel in cold.database:
                if cold_rel.columnar is None:
                    continue
                assert warm.database[cold_rel.name].columnar is not None, (
                    seed,
                    query.name,
                    cold_rel.name,
                )
            oracle = forward_reduce(
                query, shifted, disjoint=True, provenance=True
            )
            for (ej, tree), oracle_ej in zip(
                _acyclic_disjuncts(warm), oracle.ej_queries
            ):
                fast = columnar_yannakakis_count(
                    join_atoms_for(ej, warm.database), tree
                )
                expected = yannakakis_count(
                    join_atoms_for(oracle_ej, oracle.database), tree
                )
                if fast is not None:
                    assert fast == expected, (seed, query.name, ej.name)
            warm_total = count_disjunction(warm)
            with use_columnar_kernels(False):
                cold_total = count_disjunction(cold)
            assert warm_total == cold_total == naive_count(query, db), (
                seed,
                query.name,
            )
    assert checked, f"seed={seed}: no artifact round-tripped"
