"""Differential and structural pins for the bag kernel
(:func:`repro.engine.columnar_eval.columnar_materialise_bags`).

Cyclic EJ disjuncts are evaluated through a tree decomposition
(Appendix A.2.1): materialise every bag with a worst-case optimal join,
then Yannakakis over the bags.  The kernel does the first phase on code
arrays; the tuple ``materialise_bags`` of ``tests/oracles`` is its
oracle.  Pinned here:

* per cyclic disjunct of ``triangle_ij``, ``cycle_ij(4)``,
  ``loomis_whitney4_ij`` and ``clique4_ij`` — plain and
  disjoint + provenance; on a fresh reduction, on a v5 cache entry
  loaded as a read-only memmap (asserted unmodified on disk) and after
  an ``apply_delta`` insert/delete pair — every bag decodes to exactly
  the oracle's bag, its rows are distinct, and ``evaluate_ej`` /
  ``count_ej`` / ``evaluate_ej_full`` agree with the oracle dispatch
  over the same artifact;
* the triangle and the 4-cycle are small enough to evaluate every
  disjunct, so their disjunctions are also checked against the naive
  oracle.  The two 4-variable queries reduce to 1296 disjuncts of
  pairwise different shape (one fhtw search each), so a seeded sample
  of their disjuncts is compared kernel-vs-oracle only;
* evaluation — the oracles' tuple reads included — leaves every source
  relation block-backed;
* inputs that are not comparable as they stand (row-backed relations,
  two codebooks, a variable with two column kinds) and rows wider than
  62 bits are answered by the kernel itself, with the oracle's answer;
  the uncovered-vertex ``ValueError`` is raised by kernel and oracle
  alike;
* the per-row pivot keeps the frontier within the AGM bound on a
  skewed triangle where any pairwise plan is quadratic.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import os
import random

import numpy as np
import pytest
from oracles import ej as oracle
from test_delta_maintenance import _in_domain_tuple

from repro.core import QuerySession, naive_count, naive_evaluate
from repro.core.cache_format import load_result, serialize_result
from repro.core.reduction_cache import FORMAT_VERSION
from repro.engine import columnar_eval
from repro.engine.columnar_eval import (
    columnar_materialise_bags,
    columnar_yannakakis_count,
)
from repro.engine.decomposition import bag_atoms_and_tree
from repro.engine.ej import (
    count_ej,
    evaluate_ej,
    evaluate_ej_full,
    join_atoms_for,
    plan_ej,
)
from repro.engine.generic_join import JoinAtom
from repro.engine.relation import Delta, Relation
from repro.hypergraph.acyclicity import is_alpha_acyclic
from repro.queries.catalog import (
    clique4_ij,
    cycle_ij,
    loomis_whitney4_ij,
    triangle_ij,
)
from repro.reduction import forward_reduce, shift_distinct_left
from repro.reduction.columnar import (
    CODE_DTYPE,
    COL_CODE,
    COL_ID,
    CodeBook,
    ColumnBlock,
)
from repro.widths.tree_decomposition import TreeDecomposition
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

#: name -> (query, tuples per relation, disjuncts compared; None = all,
#: which also unlocks the naive check of the whole disjunction)
QUERIES = {
    "triangle": (triangle_ij(), 8, None),
    "cycle4": (cycle_ij(4), 5, None),
    "lw4": (loomis_whitney4_ij(), 2, 3),
    "clique4": (clique4_ij(), 2, 3),
}
#: (query name, seed index, domain / n): 3 is dense (true, hundreds of
#: witnesses), 12 sparse (mostly false / zero counts)
CASES = [
    ("triangle", 0, 3),
    ("triangle", 1, 12),
    ("cycle4", 2, 3),
    ("cycle4", 3, 12),
    ("lw4", 4, 3),
    ("clique4", 5, 3),
]
MODES = ("plain", "disjoint")
STATES = ("fresh", "cache", "patched")


def _seed(index: int) -> int:
    return 10_000 * FUZZ_SEED + index


def _reduce(query, db, mode):
    if mode == "disjoint":
        return forward_reduce(
            query, shift_distinct_left(query, db), disjoint=True,
            provenance=True,
        )
    return forward_reduce(query, db)


def _mutation_pair(rng, query, db, result, mode):
    """An ``apply_delta`` insert/delete pair over the database ``result``
    was reduced from, and the source database it leaves behind.

    Plain: insert a new tuple whose endpoints are already in the
    segment trees' domains, delete another one — the source changes and
    the naive oracle is asked about the changed source.  Disjoint: the
    reduction reads the G.1-shifted copy, whose left endpoints must stay
    pairwise distinct for the disjunct counts to add up, so the pair
    deletes a shifted tuple and inserts the very same tuple back."""
    first, last = query.atoms[0], query.atoms[-1]
    if mode == "disjoint":
        base = shift_distinct_left(query, db)
        victim = rng.choice(sorted(base[last.relation].tuples, key=repr))
        return [
            Delta(1, "delete", last.relation, victim),
            Delta(2, "insert", last.relation, victim),
        ], db
    row = _in_domain_tuple(result, first.relation, rng)
    victim = rng.choice(sorted(db[last.relation].tuples, key=repr))
    mutated = db.clone()
    deltas = []
    if mutated.insert(first.relation, row) is not None:
        deltas.append(Delta(1, "insert", first.relation, row))
    mutated.delete(last.relation, victim)
    deltas.append(Delta(2, "delete", last.relation, victim))
    return deltas, mutated


def _artifact(query, db, mode, state, tmp_path, rng):
    """A reduction artifact in ``state``, the source database it now
    describes, and the cache entry path when there is one."""
    result = _reduce(query, db, mode)
    path = None
    if state == "cache":
        path = tmp_path / "entry.red"
        path.write_bytes(serialize_result(result, FORMAT_VERSION))
        result = load_result(path, FORMAT_VERSION)
        assert result is not None
    elif state == "patched":
        deltas, db = _mutation_pair(rng, query, db, result, mode)
        for delta in deltas:
            result.apply_delta(delta)
    return result, db, path


def _cyclic(result, limit, rng):
    indices = [
        i
        for i, ej in enumerate(result.ej_queries)
        if not is_alpha_acyclic(ej.hypergraph())
    ]
    assert indices, "no cyclic disjunct: the kernel would never run"
    if limit is not None:
        indices = sorted(rng.sample(indices, limit))
    return indices


def _assert_all_columnar(result):
    for relation in result.database:
        assert relation.columnar is not None, relation.name


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name, index, spread", CASES)
def test_bags_and_answers_match_the_tuple_path(
    name, index, spread, mode, state, tmp_path
):
    query, n, limit = QUERIES[name]
    seed = _seed(index)
    rng = random.Random(seed)
    db = random_database(query, n, seed=seed, domain=spread * n)
    result, db, path = _artifact(query, db, mode, state, tmp_path, rng)
    on_disk = path.read_bytes() if path is not None else None
    context = (name, mode, state, seed)

    booleans, counts = [], []
    for i in _cyclic(result, limit, rng):
        ej = result.ej_queries[i]
        td = plan_ej(ej.hypergraph(), method="decomposition").td
        atoms = join_atoms_for(ej, result.database)
        fast = columnar_materialise_bags(atoms, td)
        slow = oracle.materialise_bags(atoms, td)
        got = (
            evaluate_ej(ej, result.database),
            count_ej(ej, result.database),
            evaluate_ej_full(ej, result.database),
        )
        want = (
            oracle.evaluate_ej(ej, result.database),
            oracle.count_ej(ej, result.database),
            oracle.evaluate_ej_full(ej, result.database),
        )
        assert len(fast) == len(slow) == len(td.bags)
        for bag, reference in zip(fast, slow):
            assert (bag.name, bag.schema) == (reference.name, reference.schema)
            block = bag.columnar
            assert block is not None, context
            codes = np.asarray(block.codes)
            assert codes.dtype == CODE_DTYPE
            assert len(np.unique(codes, axis=0)) == len(codes), context
            assert set(block.rows()) == reference.tuples, (context, bag.name)
        assert got[:2] == want[:2], (context, ej.name)
        assert got[0] == (got[1] > 0)
        assert got[2].schema == want[2].schema
        assert got[2].tuples == want[2].tuples, (context, ej.name)
        booleans.append(got[0])
        counts.append(got[1])

    # nothing — the oracles' tuple reads included — cost a relation
    # its block
    _assert_all_columnar(result)
    if on_disk is not None:
        assert path.read_bytes() == on_disk
    if limit is None:
        # every disjunct of these reductions is cyclic
        assert len(booleans) == len(result.ej_queries)
        assert any(booleans) == naive_evaluate(query, db), context
        if mode == "disjoint":
            assert sum(counts) == naive_count(query, db), context


def test_session_evaluation_leaves_cyclic_reductions_columnar():
    query = triangle_ij()
    db = random_database(query, 12, seed=_seed(7), domain=36)
    session = QuerySession(db)
    assert session.evaluate(query, strategy="reduction") == naive_evaluate(
        query, db
    )
    assert session.count(query) == naive_count(query, db)
    stores = list(session._reductions.values())
    assert len(stores) == 2
    for result, *_ in stores:
        _assert_all_columnar(result)


# ----------------------------------------------------------------------
# the door: inputs that are not comparable as they stand
# ----------------------------------------------------------------------


def _relation(name, schema, rows, kinds, book):
    block = ColumnBlock(np.array(rows, dtype=CODE_DTYPE), kinds, book)
    return Relation.from_columns(name, schema, block)


def _triangle_atoms(book, kinds=None, scale=1):
    """A small hand-built triangle over ``book`` whose codes decode to
    themselves, so code columns and verbatim id columns decode to
    comparable values."""
    kinds = kinds or {}
    edges = {
        "R": ("A", "B"),
        "S": ("B", "C"),
        "T": ("C", "A"),
    }
    rows = [(0, 1), (1, 2), (2, 0), (1, 1), (3, 1), (2, 3)]
    return [
        JoinAtom(
            _relation(
                name,
                schema,
                [(a * scale, b * scale) for a, b in rows],
                kinds.get(name, (COL_CODE, COL_CODE)),
                book,
            )
        )
        for name, schema in edges.items()
    ]


ONE_BAG = TreeDecomposition([frozenset("ABC")], [])


def _identity_book(size=4):
    return CodeBook(range(size))


def _two_codebooks():
    atoms = _triangle_atoms(_identity_book())
    atoms[2] = _triangle_atoms(_identity_book())[2]
    return atoms


def _row_backed():
    return [
        JoinAtom(Relation(a.relation.name, a.variables, a.relation.tuples))
        for a in _triangle_atoms(_identity_book())
    ]


#: inputs whose raw cells must not be compared across atoms as they are
INCOMPARABLE = {
    "row_backed": _row_backed,
    "one_row_backed": lambda: _triangle_atoms(_identity_book())[:2]
    + _row_backed()[2:],
    "two_codebooks": _two_codebooks,
    # B: a code in R, a verbatim id in S
    "two_kinds": lambda: _triangle_atoms(
        _identity_book(), {"S": (COL_ID, COL_CODE)}
    ),
}


@pytest.mark.parametrize("case", sorted(INCOMPARABLE))
def test_incomparable_inputs_are_re_encoded_at_the_door(case):
    atoms = INCOMPARABLE[case]()
    blocks = [atom.relation.columnar for atom in atoms]
    (bag,) = columnar_materialise_bags(atoms, ONE_BAG)
    (reference,) = oracle.materialise_bags(atoms, ONE_BAG)
    assert bag.columnar is not None
    assert bag.tuples == reference.tuples
    assert columnar_yannakakis_count(
        *bag_atoms_and_tree(atoms, ONE_BAG)
    ) == oracle.count_with_decomposition(atoms, ONE_BAG)
    # the inputs are left as they were
    assert [atom.relation.columnar for atom in atoms] == blocks


def test_keys_beyond_62_bits_stay_in_the_kernel():
    # verbatim ids up to 3 * 2**29: two of them pack into 62 bits, the
    # three columns of the 3-ary atom below do not
    ids = (COL_ID, COL_ID)
    kinds = {"R": ids, "S": ids, "T": ids}
    scale = 1 << 29
    book = CodeBook()
    wide = _relation(
        "U",
        ("A", "B", "C"),
        [(0, scale, 2 * scale), (scale, scale, scale)],
        (COL_ID,) * 3,
        book,
    )
    atoms = _triangle_atoms(book, kinds, scale) + [JoinAtom(wide)]
    (bag,) = columnar_materialise_bags(atoms, ONE_BAG)
    (reference,) = oracle.materialise_bags(atoms, ONE_BAG)
    assert bag.tuples == reference.tuples
    assert len(bag) == 2
    assert bag.columnar.book is book
    assert columnar_yannakakis_count(*bag_atoms_and_tree(atoms, ONE_BAG)) == 2


@pytest.mark.parametrize("engine", [True, False])
def test_uncovered_bag_vertex_raises_on_both_paths(engine):
    atoms = _triangle_atoms(_identity_book())
    td = TreeDecomposition([frozenset("ABC"), frozenset("CZ")], [(0, 1)])
    materialise = (
        columnar_materialise_bags if engine else oracle.materialise_bags
    )
    with pytest.raises(ValueError, match="covered by no atom"):
        materialise(atoms, td)


# ----------------------------------------------------------------------
# worst-case optimality: the per-row pivot
# ----------------------------------------------------------------------


def _skewed_triangle(n):
    """``R = S = T = {(0, i)} ∪ {(i, 0)}``: every relation has 2n + 1
    rows and the join has 3n + 1, but joining any two relations first
    produces n² intermediate rows through the heavy value 0."""
    rows = sorted({(0, i) for i in range(n + 1)} | {(i, 0) for i in range(n + 1)})
    book = _identity_book(n + 1)
    kinds = (COL_CODE, COL_CODE)
    return [
        JoinAtom(_relation(name, schema, rows, kinds, book))
        for name, schema in (
            ("R", ("A", "B")),
            ("S", ("B", "C")),
            ("T", ("C", "A")),
        )
    ]


def _peak_frontier(monkeypatch, n):
    peaks = []
    real = columnar_eval._expand_ranges

    def spy(starts, counts):
        peaks.append(int(counts.sum()))
        return real(starts, counts)

    monkeypatch.setattr(columnar_eval, "_expand_ranges", spy)
    (bag,) = columnar_materialise_bags(_skewed_triangle(n), ONE_BAG)
    assert len(bag) == 3 * n + 1
    return max(peaks)


def test_frontier_stays_within_the_agm_bound_on_skew(monkeypatch):
    small, large = (_peak_frontier(monkeypatch, n) for n in (100, 200))
    # linear in the input (a pairwise plan expands 10_000 / 40_000 rows)
    assert small <= 4 * 100 + 4
    assert large <= 4 * 200 + 4
    (reference,) = oracle.materialise_bags(_skewed_triangle(20), ONE_BAG)
    (bag,) = columnar_materialise_bags(_skewed_triangle(20), ONE_BAG)
    assert set(bag.columnar.rows()) == reference.tuples
