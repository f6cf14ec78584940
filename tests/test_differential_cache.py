"""Property-based differential fuzzing of the caching layers.

The adversarial oracle for the session/cache stack: seeded random
queries and databases drive *interleaved* evaluate / count / mutate
sequences, and after every mutation every engine must agree —

* the long-lived :class:`QuerySession` (incremental per-relation
  invalidation, LRU answer cache, optionally a persistent on-disk
  reduction cache),
* a fresh :class:`IntersectionJoinEngine` (which routes through the
  database's *shared* session — a second, independently invalidated
  session instance),
* the stateless ``evaluate_ij`` pipeline, and
* the ``naive_evaluate`` / ``naive_count`` semantics oracle.

Any stale-cache bug — a mutation missed by the digest diff, an
over-narrow incremental invalidation, a persistent entry served for the
wrong database contents, a mis-applied delta patch — surfaces here as a
cross-engine disagreement.

Mutations are interleaved through two channels on purpose: the
:class:`Database` mutation API (``insert``/``delete``, which logs
:class:`~repro.engine.relation.Delta` records the session can *patch*
cached reductions with — the generator's small integer endpoint grid
makes in-domain deltas common, while fresh endpoints exercise the
``DomainChanged`` rebuild fallback) and direct ``relation.tuples``
mutation (bypassing the log, forcing the digest-diff rebuild path and
the stamp-algebra integrity check that guards against trusting a log
that does not fully explain an observed change).

CI runs this module across a seed matrix: ``REPRO_FUZZ_SEED`` selects a
disjoint family of scenario seeds, so every matrix cell explores
different query shapes and mutation interleavings.
"""

import os
import random

import pytest
from oracles.reduction import apply_delta_rows, naive_forward_reduce

from repro.core import (
    IntersectionJoinEngine,
    QuerySession,
    evaluate_ij,
    naive_count,
    naive_evaluate,
)
from repro.core.reduction_cache import result_digest
from repro.engine import Database, Relation
from repro.engine.relation import Delta
from repro.intervals import Interval
from repro.queries import Query
from repro.queries.query import Atom
from repro.reduction import DomainChanged, forward_reduce
from repro.workloads.query_generator import (
    isomorphic_variants,
    random_ij_query,
)

#: Selected by the CI fuzz matrix; each value shifts every scenario
#: into a fresh region of the seed space.
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

SCENARIOS = 5
STEPS = 14
MAX_DISJUNCTS = 100
MAX_RELATION_SIZE = 6


def scenario_seed(index: int) -> int:
    return 10_000 * FUZZ_SEED + index


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def feasible(query: Query) -> bool:
    """Keep the reduction's disjunction small enough to fuzz quickly."""
    total = 1
    for v in query.interval_variables:
        k = len(query.atoms_containing(v.name))
        f = 1
        for i in range(2, k + 1):
            f *= i
        total *= f
        if total > MAX_DISJUNCTS:
            return False
    return True


def namespaced(query: Query, prefix: str) -> Query:
    """Rename the query's relations into a private namespace so several
    random queries coexist in one database without schema clashes —
    which is exactly what makes *incremental* invalidation observable."""
    atoms = tuple(
        Atom(atom.label, f"{prefix}{atom.relation}", atom.variables)
        for atom in query.atoms
    )
    return Query(atoms, name=f"{prefix}{query.name}")


def random_queries(rng: random.Random) -> list[Query]:
    queries: list[Query] = []
    while len(queries) < 2:
        query = random_ij_query(
            rng,
            max_atoms=3,
            max_variables=3,
            point_probability=0.25,
            name=f"Q{len(queries)}",
        )
        if feasible(query):
            queries.append(namespaced(query, f"ns{len(queries)}_"))
    return queries


def random_tuple(rng: random.Random, atom: Atom) -> tuple:
    row = []
    for v in atom.variables:
        if v.is_interval:
            lo = rng.randint(0, 8)
            row.append(Interval(lo, lo + rng.randint(0, 4)))
        else:
            row.append(rng.randint(0, 4))
    return tuple(row)


def build_database(
    rng: random.Random, queries: list[Query]
) -> tuple[Database, dict[str, Atom]]:
    """One database covering every relation of the batch, plus the
    atom pattern used to generate (and later mutate) each relation."""
    patterns: dict[str, Atom] = {}
    for query in queries:
        for atom in query.atoms:
            patterns.setdefault(atom.relation, atom)
    db = Database()
    for relation, atom in patterns.items():
        rows = {random_tuple(rng, atom) for _ in range(rng.randint(1, 4))}
        db.add(Relation(relation, atom.variable_names, rows))
    return db, patterns


def mutate(rng: random.Random, db: Database, patterns: dict[str, Atom]) -> str:
    """Insert or delete one tuple of one relation; returns its name.

    70% of mutations go through the logged :meth:`Database.insert` /
    :meth:`Database.delete` API (the delta-patch path), the rest mutate
    ``relation.tuples`` directly (the rebuild path).  A step may chain
    several mutations so one session sync sees multi-delta logs.
    """
    name = rng.choice(sorted(patterns))
    relation = db[name]
    grow = len(relation.tuples) < MAX_RELATION_SIZE and (
        not relation.tuples or rng.random() < 0.6
    )
    logged = rng.random() < 0.7
    if grow:
        t = random_tuple(rng, patterns[name])
        if logged:
            db.insert(name, t)
        else:
            relation.tuples.add(t)
    else:
        t = rng.choice(sorted(relation.tuples, key=repr))
        if logged:
            db.delete(name, t)
        else:
            relation.tuples.discard(t)
    return name


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


def check_agreement(
    queries: list[Query],
    db: Database,
    session: QuerySession,
    label: str,
) -> None:
    """Every engine must give the oracle's answer for every query."""
    for query in queries:
        expected = naive_evaluate(query, db)
        assert session.evaluate(query, strategy="reduction") == expected, (
            label,
            query,
        )
        assert IntersectionJoinEngine(query).evaluate(db) == expected, (
            label,
            query,
        )
        assert evaluate_ij(query, db) == expected, (label, query)
        expected_count = naive_count(query, db)
        assert session.count(query) == expected_count, (label, query)
        assert IntersectionJoinEngine(query).count(db) == expected_count, (
            label,
            query,
        )


def run_scenario(seed: int, cache_dir=None) -> QuerySession:
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, patterns = build_database(rng, queries)
    session = QuerySession(db, cache_dir=cache_dir)
    check_agreement(queries, db, session, f"seed={seed} initial")

    mutations = 0
    for step in range(STEPS):
        label = f"seed={seed} step={step}"
        roll = rng.random()
        if roll < 0.45:
            # possibly several mutations before the next read, so one
            # session sync must replay a multi-delta log
            names = [
                mutate(rng, db, patterns)
                for _ in range(rng.randint(1, 2))
            ]
            mutations += len(names)
            check_agreement(
                queries, db, session, f"{label} mutated={names}"
            )
        elif roll < 0.75:
            # warm-path reads: cached answers must match the oracle too
            query = rng.choice(queries)
            assert session.evaluate(
                query, strategy="reduction"
            ) == naive_evaluate(query, db), label
        else:
            # isomorphic variants share the cached reduction and answer
            query = rng.choice(queries)
            variant = isomorphic_variants(query, 1, seed=step)[0]
            assert session.evaluate(
                variant, strategy="reduction"
            ) == naive_evaluate(query, db), label
    assert mutations >= 1, f"seed={seed}: no mutation exercised"

    if cache_dir is not None:
        # a fresh session over the final database must be served purely
        # from disk: zero forward reductions, same answers
        warm = QuerySession(db, cache_dir=cache_dir)
        check_agreement(queries, db, warm, f"seed={seed} warm")
        assert warm.stats.reductions == 0, warm.stats.as_dict()
        assert warm.stats.persistent_hits > 0, warm.stats.as_dict()
    return session


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_interleaved_mutations_keep_engines_agreeing(index):
    run_scenario(scenario_seed(index))


def test_interleaved_mutations_with_persistent_cache(tmp_path):
    run_scenario(scenario_seed(SCENARIOS), cache_dir=tmp_path)


def test_fuzz_exercises_the_delta_patch_path():
    """The mutation API plus the small integer endpoint grid must make
    in-domain logged deltas common enough that the sessions genuinely
    fuzz the patch path (not only the rebuild fallback)."""
    patched = 0
    rebuilt = 0
    for index in range(SCENARIOS):
        stats = run_scenario(scenario_seed(index)).stats
        patched += stats.delta_patches
        rebuilt += stats.invalidations
    assert patched > 0, (patched, rebuilt)
    assert rebuilt > 0, (patched, rebuilt)


def _patchable_deltas(
    rng: random.Random, query: Query, db: Database, result
) -> list[Delta]:
    """Tuple-level deltas expressed over ``db`` that the reduction can
    (mostly) patch: inserts built from endpoints already in the segment
    trees' domains, plus deletes of existing tuples.  Versions are
    synthetic — apply_delta never reads them."""
    deltas: list[Delta] = []
    version = 1_000
    for atom in query.atoms:
        row = []
        for v in atom.variables:
            if v.is_interval:
                points = sorted(result.segment_trees[v.name].endpoints)
                if len(points) < 2:
                    row = None
                    break
                lo, hi = sorted(rng.sample(points, 2))
                row.append(Interval(lo, hi))
            else:
                row.append(rng.randint(0, 4))
        if row is not None and tuple(row) not in db[atom.relation].tuples:
            version += 1
            deltas.append(Delta(version, "insert", atom.relation, tuple(row)))
        existing = sorted(db[atom.relation].tuples, key=repr)
        if existing:
            version += 1
            deltas.append(
                Delta(version, "delete", atom.relation, rng.choice(existing))
            )
    return deltas


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_memoized_reduction_digest_identical_to_reference(index):
    """The reduction builder's oracle, over the same fuzz seed family as
    the engine-agreement suite: for every scenario query/database (and
    both pipeline flag combinations) the array builder must be
    **digest-identical** to the naive per-tuple loop
    (``oracles.reduction``) — and must *stay* identical after the same
    delta sequence is applied to both: ``apply_delta`` on the arrays,
    the dict/set row patcher on the oracle's rows."""
    seed = scenario_seed(index)
    rng = random.Random(seed)
    queries = random_queries(rng)
    db, _ = build_database(rng, queries)
    patched_any = False
    for query in queries:
        for disjoint, provenance in ((False, False), (True, True)):
            reference = naive_forward_reduce(query, db, disjoint, provenance)
            default = forward_reduce(query, db, disjoint, provenance)
            assert result_digest(default) == result_digest(reference), (
                seed,
                query,
                disjoint,
                provenance,
            )
            deltas = _patchable_deltas(
                random.Random(seed + 1), query, db, reference
            )
            for delta in deltas:
                try:
                    apply_delta_rows(reference, delta)
                except DomainChanged:
                    continue
                patched_any = True
                # must agree on patchability too
                default.apply_delta(delta)
                assert result_digest(default) == result_digest(reference), (
                    seed,
                    query,
                    delta,
                )
    assert patched_any, f"seed={seed}: no delta patch exercised"


def test_distinct_matrix_cells_explore_distinct_scenarios():
    """The CI seed knob must actually change what gets fuzzed: this
    cell's scenarios differ from the next cell's (FUZZ_SEED + 1), and
    the two cells' scenario seed ranges never overlap."""
    here = random_queries(random.Random(scenario_seed(0)))
    next_cell = random_queries(random.Random(10_000 * (FUZZ_SEED + 1)))
    assert [repr(q) for q in here] != [repr(q) for q in next_cell]
    this_range = {scenario_seed(i) for i in range(SCENARIOS + 1)}
    next_range = {
        10_000 * (FUZZ_SEED + 1) + i for i in range(SCENARIOS + 1)
    }
    assert this_range.isdisjoint(next_range)
