"""Whole-column forward reduction: ``SegmentTree.column_encodings``
against the scalar walk and the paper's recursive tree, the edges the
array form makes reachable, which path serves a relation and which a
tuple, the wide-key dedup, and provenance variants emitted as laid out
(distinct, unit-counted, no dedup pass) on hostile endpoints, and a
tree-wide encoding batch against its columns, the scalar walk, the
paper and the filtering walk it replaced.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import math
import os
import random
import sys
from collections import Counter

import numpy as np
import pytest
from oracles.reduction import (
    apply_delta_rows,
    interval_encodings,
    naive_forward_reduce,
    splits,
)
from oracles.segment_tree import (
    canonical_partition,
    complete_tree,
    filtering_walk,
    leaf_of_point,
)
from test_delta_maintenance import _in_domain_tuple

from repro.core import QuerySession
from repro.core.baselines import naive_count, naive_evaluate
from repro.core.reduction_cache import result_digest
from repro.engine import Database, Relation
from repro.intervals import Interval, SegmentTree, bitstring, segment_tree
from repro.intervals.bitstring import node_id
from repro.queries import catalog, parse_query
from repro.reduction import ForwardReducer, forward_reduce
from repro.reduction.columnar import distinct_rows
from repro.reduction.forward import _VariantLayout, digit_dtype
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
VARIANTS = [
    (parts, leaf, flag)
    for parts in (1, 2, 3, 4)
    for leaf in (False, True)
    for flag in (False, True)
]


def _row_sets(matrix, starts, counts):
    """Per value, its rows as a sorted list of part-id tuples."""
    return [
        sorted(map(tuple, matrix[s : s + c].tolist()))
        for s, c in zip(starts.tolist(), counts.tolist())
    ]


def _scalar(points, values, parts, leaf, flag):
    tree = SegmentTree.from_endpoints(points)  # fresh: walks, not slices
    return [
        sorted(map(tuple, tree.encodings(v, parts, leaf, flag).tolist()))
        for v in values
    ]


# ----------------------------------------------------------------------
# (a) column ≡ scalar ≡ the recursive tree of Section 3
# ----------------------------------------------------------------------


@pytest.mark.parametrize("m", range(0, 129))
def test_column_encodings_are_the_scalar_ones_and_the_papers(m):
    rng = random.Random(1000 * FUZZ_SEED + m)
    points = sorted(rng.sample(range(-500, 500), m))
    if not points:
        pairs = []
    elif m <= 12:
        pairs = [(a, b) for a in points for b in points if a <= b]
    else:
        pairs = [tuple(sorted(rng.choices(points, k=2))) for _ in range(20)]
    # off the domain: both ends outside, one end between two endpoints,
    # an empty rank range (no endpoint inside)
    low, high = (points[0], points[-1]) if points else (0, 0)
    pairs += [(low - 9, high + 9), (low - 9, low - 5), (high + 0.25, high + 0.5)]
    if points:
        pairs += [(low - 0.5, rng.choice(points)), (rng.choice(points), high + 0.5)]
        pairs += [(low + 0.25, high - 0.25)] if low + 0.25 <= high - 0.25 else []
    values = [Interval(a, b) for a, b in dict.fromkeys(pairs)]
    reference = complete_tree(points)
    for parts, leaf, flag in VARIANTS:
        tree = SegmentTree.from_endpoints(points)
        matrix, starts, counts = tree.column_encodings(values, parts, leaf, flag)
        assert matrix.dtype == np.uint32 and not matrix.flags.writeable
        assert matrix.shape == (int(counts.sum()), parts)
        got = _row_sets(matrix, starts, counts)
        assert got == _scalar(points, values, parts, leaf, flag)
        for value, rows in zip(values, got):
            if leaf:
                nodes = [leaf_of_point(reference, value.left)]
            else:
                nodes = canonical_partition(reference, value.left, value.right)
            expected = sorted(
                tuple(map(node_id, split))
                for node in nodes
                for split in splits(node, parts)
                if not (flag and parts > 1 and split[-1] == "")
            )
            assert rows == expected
            # and the scalar entry point now answers from the column
            served = tree.encodings(value, parts, leaf, flag)
            assert not served.flags.writeable
            assert len(served) == 0 or np.shares_memory(served, matrix)


# ----------------------------------------------------------------------
# (b) edges the array form makes reachable
# ----------------------------------------------------------------------


@pytest.mark.parametrize("parts,leaf,flag", VARIANTS)
def test_the_height_zero_tree(parts, leaf, flag):
    """No endpoints: the leaf of any point is the root, id 1, whose
    only split is all-empty; no interval has a canonical partition."""
    tree = SegmentTree.from_endpoints(())
    values = [Interval(0, 1), Interval(5, 5)]
    matrix, starts, counts = tree.column_encodings(values, parts, leaf, flag)
    kept = leaf and not (flag and parts > 1)
    assert counts.tolist() == [int(kept)] * 2
    assert matrix.tolist() == [[bitstring.EMPTY] * parts] * (2 * kept)
    assert _row_sets(matrix, starts, counts) == _scalar((), values, parts, leaf, flag)


def test_empty_relations_reduce_to_the_oracles_empty_variants():
    query = catalog.triangle_ij()
    full = random_database(query, 6, seed=FUZZ_SEED, domain=20.0, mean_length=5.0)
    some = Database(
        [full["R"], Relation("S", ("B", "C"), set()), full["T"]]
    )
    none = Database(
        [Relation(a.relation, a.variable_names, set()) for a in query.atoms]
    )
    for db in (some, none):
        for flags in ((False, False), (True, True)):
            fast = forward_reduce(query, db, *flags)
            assert result_digest(fast) == result_digest(
                naive_forward_reduce(query, db, *flags)
            )
    assert forward_reduce(query, none).segment_trees["A"].height == 0
    assert forward_reduce(query, none).database.size == 0


def test_an_empty_option_list_empties_that_tuples_product_only():
    """A value with no canonical partition (reachable only when the tree
    does not hold its endpoints) derives no row; its neighbours keep
    theirs.  The per-tuple path is the reference."""
    query = parse_query("R([A],[B],p) ∧ S([A],[B])")
    db = random_database(query, 12, seed=FUZZ_SEED + 3, domain=40.0, mean_length=4.0)
    reducer = ForwardReducer(query, db)
    victim = min((t[0] for t in db["R"].tuples), key=lambda x: x.length)
    reducer.trees["A"] = SegmentTree.from_endpoints(
        p for p in reducer.trees["A"].endpoints if not victim.contains_point(p)
    )
    result = reducer.reduce()
    # the reference walks fresh trees: no column result to slice
    result.segment_trees = {
        x: SegmentTree.from_endpoints(tree.endpoints)
        for x, tree in result.segment_trees.items()
    }
    result.layouts.clear()
    emptied = 0
    for atom in query.atoms:
        for spec in result.atom_variants[atom.label]:
            expected = Counter()
            for tuple_id, t in enumerate(result.tuple_order[atom.label]):
                rows = result.tuple_rows(atom, spec, t, tuple_id, intern=False)
                emptied += len(rows) == 0
                expected.update(map(tuple, rows.tolist()))
            counts = result.variant_counts[spec.name()]
            got = dict(zip(map(tuple, counts.block.codes.tolist()), counts.array.tolist()))
            assert got == expected and counts.block.row_count > 0
    assert emptied > 0


def test_a_tree_of_max_height_keeps_depths_exact():
    """Ids of the deepest level need 31 bits; a depth read off an id
    through a float logarithm would be off by one there.  The endpoint
    domain is a ``range`` — the tree only ever bisects it."""
    m = (1 << 29) - 1
    tree = SegmentTree()
    tree._points = range(m)
    tree.height = segment_tree.MAX_HEIGHT
    tree._inner = 2 * m + 1 - (1 << (tree.height - 1))
    tree._bottom = 2 * tree._inner
    assert tree.height == (2 * m).bit_length() and tree.id_bound == 1 << 31
    rng = random.Random(FUZZ_SEED)
    values = [Interval(0, 0), Interval(0, m - 1), Interval(m - 2, m - 1)]
    values += [Interval(tree._inner // 2 - 1, tree._inner // 2 + 1)]
    values += [
        Interval(*sorted(rng.choices(range(m), k=2))) for _ in range(10)
    ]
    deepest = 0
    for parts, leaf, flag in VARIANTS:
        matrix, starts, counts = tree.column_encodings(values, parts, leaf, flag)
        deepest = max(deepest, int(matrix.max()))
        for value, rows in zip(values, _row_sets(matrix, starts, counts)):
            nodes = [tree.leaf_id(value.left)] if leaf else tree.cp_ids(value)
            expected = [
                tuple(row)
                for v in nodes
                for row in bitstring.split_ids(v, parts).tolist()
                if not (flag and parts > 1 and row[-1] == bitstring.EMPTY)
            ]
            assert rows == sorted(expected)
    assert deepest >= 1 << 30


def test_adjacent_integers_past_2_53_stay_two_leaves_on_the_column_path():
    big = 2**53
    assert float(big) == float(big + 1)
    points = (big, big + 1)
    values = [Interval(big, big), Interval(big + 1, big + 1), Interval(big, big + 1)]
    for parts, leaf, flag in VARIANTS:
        tree = SegmentTree.from_endpoints(points)
        got = _row_sets(*tree.column_encodings(values, parts, leaf, flag))
        assert got == _scalar(points, values, parts, leaf, flag)
        assert got[0] != got[1] or not got[0]


# ----------------------------------------------------------------------
# (c) a relation takes the column path, a tuple the scalar one
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(catalog.PAPER_IJ_QUERIES))
def test_one_path_per_input(name, monkeypatch):
    query = catalog.PAPER_IJ_QUERIES[name]()
    heavy = {"lw4": 1, "fig9a": 2, "fig9b": 2}.get(name)
    db = random_database(
        query, heavy or 4, seed=7 + FUZZ_SEED, domain=12.0, mean_length=4.0
    )
    reference = naive_forward_reduce(query, db)

    def poisoned(*args, **kwargs):
        raise AssertionError("the per-value path ran on a whole relation")

    with monkeypatch.context() as poison:
        poison.setattr(SegmentTree, "cp_ids", poisoned)
        poison.setattr(SegmentTree, "encodings", poisoned)
        poison.setattr(bitstring, "split_ids", poisoned)
        poison.setattr(segment_tree, "split_ids", poisoned)
        poison.setattr(_VariantLayout, "template", poisoned)
        result = forward_reduce(query, db)
        forward_reduce(query, db, disjoint=True, provenance=True)
        relation = query.atoms[0].relation
        row = _in_domain_tuple(result, relation, random.Random(FUZZ_SEED))
        delta = db.clone().insert(relation, row)
        if delta is not None:
            with pytest.raises(AssertionError):
                result.apply_delta(delta)
    for relation in reference.database:
        assert result.database[relation.name].tuples == relation.tuples
    if delta is not None:  # un-poisoned, the tuple path patches
        result.apply_delta(delta)
        apply_delta_rows(reference, delta)
        for relation in reference.database:
            assert result.database[relation.name].tuples == relation.tuples
        assert reference.variant_counts == {
            name: dict(counts.items())
            for name, counts in result.variant_counts.items()
        }


# ----------------------------------------------------------------------
# (d) interpreter work is per tuple, not per encoding
# ----------------------------------------------------------------------


def test_python_calls_per_input_tuple_stay_constant():
    n = 240
    query = catalog.star_ij(3)
    db = random_database(query, n, seed=5, domain=12.0 * n)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        forward_reduce(query, db)
    finally:
        sys.setprofile(previous)
    assert calls < 40 * db.size, calls / db.size


# ----------------------------------------------------------------------
# (e) rows wider than 64 bits
# ----------------------------------------------------------------------


def test_wide_rows_deduplicate_through_the_one_packer(monkeypatch):
    rng = np.random.default_rng(FUZZ_SEED)
    rows = rng.integers(0, 1 << 13, size=(4000, 6), dtype=np.uint32)
    rows = np.concatenate([rows, rows[::3], rows[::7]])
    rng.shuffle(rows)
    expected, expected_counts = np.unique(rows, axis=0, return_counts=True)

    def scalar_unique(array, *args, axis=None, **kwargs):
        assert axis is None, "np.unique(axis=0) on the build path"
        return unique(array, *args, **kwargs)

    unique = np.unique
    monkeypatch.setattr(np, "unique", scalar_unique)
    got, counts = distinct_rows(rows)
    assert 6 * 13 > 64 and got.dtype == rows.dtype
    assert np.array_equal(got, expected) and np.array_equal(counts, expected_counts)

    # the same through a patch, which packs a whole block's keys: eight
    # part columns of a 2-way, 4-variable pair plus the provenance id
    # pass 64 bits at n = 16 (the builder emits these variants as laid
    # out; the plain reduction, which it deduplicates, rides along)
    query = parse_query("R([A],[B],[C],[D]) ∧ S([A],[B],[C],[D])")
    db = random_database(query, 16, seed=FUZZ_SEED, domain=160.0, mean_length=6.0)
    fast = forward_reduce(query, db, disjoint=True, provenance=True)
    widest = max(
        float(np.prod(counts.block.codes.max(axis=0).astype(np.float64) + 1))
        for counts in fast.variant_counts.values()
    )
    assert widest > 2.0**64
    plain, before = forward_reduce(query, db), db.clone()
    delta = db.insert("R", _in_domain_tuple(fast, "R", random.Random(FUZZ_SEED)))
    assert delta is not None
    fast.apply_delta(delta)
    monkeypatch.undo()
    reference = naive_forward_reduce(query, before, disjoint=True, provenance=True)
    apply_delta_rows(reference, delta)
    for result, expected in ((fast, reference), (plain, naive_forward_reduce(query, before))):
        for relation in expected.database:
            assert result.database[relation.name].tuples == relation.tuples
        assert expected.variant_counts == {
            name: dict(counts.items())
            for name, counts in result.variant_counts.items()
        }


# ----------------------------------------------------------------------
# (f) a provenance variant is emitted as laid out
# ----------------------------------------------------------------------

POINT_ONLY = "R([A],B) ∧ S([A]) ∧ T(B)"
HOSTILE = sorted(catalog.PAPER_IJ_QUERIES) + [POINT_ONLY]


def _hostile_database(query, rng, n, empty):
    """Up to ``n`` tuples per atom over a small shared endpoint pool:
    point intervals, a nested chain, the neighbours of ``2**53`` (which
    and ``2**53 + 1`` are one ``float``) and, for the atom at index
    ``empty``, no tuple at all."""
    base = rng.randrange(-50, 50)
    big = 2**53
    pool = [base + d for d in range(5)] + [big - 1, big, big + 1]
    chain = [Interval(base - k, base + 4 + k) for k in range(4)]

    def interval():
        pick = rng.randrange(4)
        if pick == 0:
            p = rng.choice(pool)
            return Interval(p, p)
        if pick == 1:
            return rng.choice(chain)
        return Interval(*sorted(rng.choices(pool, k=2)))

    db = Database()
    for index, atom in enumerate(query.atoms):
        rows = {
            tuple(
                interval() if v.is_interval else rng.randrange(3)
                for v in atom.variables
            )
            for _ in range(n * (index != empty))
        }
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


@pytest.mark.parametrize("name", HOSTILE)
def test_provenance_variants_are_distinct_unit_counted_and_the_oracles(name):
    """Every provenance variant's rows are distinct with refcount 1 —
    no dedup pass made them so — and every variant's refcounts are the
    per-tuple loop's, on shared and degenerate endpoints, ``2**53``
    neighbours and empty relations."""
    query = (
        parse_query(name) if name == POINT_ONLY else catalog.PAPER_IJ_QUERIES[name]()
    )
    n = {"lw4": 1, "fig9a": 2, "fig9b": 2}.get(name, 5)
    rng = random.Random(f"{FUZZ_SEED}:{name}")
    for empty in (None, rng.randrange(len(query.atoms))):
        db = _hostile_database(query, rng, n, empty)
        fast = forward_reduce(query, db, disjoint=True, provenance=True)
        reference = naive_forward_reduce(query, db, disjoint=True, provenance=True)
        provenance = 0
        for relation in fast.database:
            counts = fast.variant_counts[relation.name]
            if not relation.schema[-1].startswith("__id_"):
                continue
            provenance += 1
            codes = np.asarray(counts.block.codes)
            assert len(np.unique(codes, axis=0)) == len(codes), relation.name
            assert (counts.array == 1).all(), relation.name
        assert provenance > 0
        assert reference.variant_counts == {
            variant: dict(counts.items())
            for variant, counts in fast.variant_counts.items()
        }


# ----------------------------------------------------------------------
# (g) one batch per tree ≡ per column ≡ scalar ≡ the paper
# ----------------------------------------------------------------------

BIG = 2**53
INF = float("inf")
#: (tree endpoints, columns of one batch): every column's values are
#: distinct, as a reduction hands them over
ADVERSARIAL = {
    "shared endpoints": (
        (0, 2, 4, 6, 8),
        [
            [Interval(0, 4), Interval(2, 6), Interval(4, 8)],
            [Interval(2, 6), Interval(0, 8), Interval(6, 8)],
        ],
    ),
    "point intervals": (
        (1, 3, 5),
        [[Interval.point(1), Interval.point(5)], [Interval.point(3), Interval(1, 3)]],
    ),
    "past 2**53": (
        (BIG - 1, BIG, BIG + 1),
        [
            [Interval.point(BIG), Interval.point(BIG + 1)],
            [Interval(BIG, BIG + 1), Interval(BIG - 1, BIG)],
        ],
    ),
    "infinite": (
        (-INF, 0, INF),
        [[Interval(-INF, INF), Interval(-INF, 0)], [Interval(0, INF), Interval.point(0)]],
    ),
    "endpoints off the tree": (
        (0, 10, 20),
        [
            [Interval(1, 9), Interval(11, 12), Interval(0, 20)],
            [Interval(-5, 5), Interval(15, 25), Interval(12, 18)],
        ],
    ),
    "an empty column": ((0, 5), [[], [Interval(0, 5), Interval.point(5)], []]),
    "one endpoint": ((7,), [[Interval.point(7)], [Interval(6, 8), Interval.point(7)]]),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_a_batch_reads_as_its_columns_the_scalar_walk_and_the_paper(name):
    points, columns = ADVERSARIAL[name]
    batch = [value for column in columns for value in column]
    offsets = np.cumsum([0] + [len(column) for column in columns]).tolist()
    for parts, leaf, flag in VARIANTS:
        tree = SegmentTree.from_endpoints(points)
        got = _row_sets(*tree.column_encodings(batch, parts, leaf, flag))
        (entry,) = tree._columns
        # the walk keeps the order of the filtering one: by depth, then
        # side, then value
        assert [
            (depth, owner.tolist(), ids.tolist())
            for depth, owner, ids in entry[3][leaf]
            if ids.size
        ] == [
            (depth, owner.tolist(), ids.tolist())
            for depth, owner, ids in filtering_walk(tree, batch, leaf)
            if ids.size
        ]
        k = parts if leaf else parts + 1  # position k takes the leaf variant
        for column, at in zip(columns, offsets):
            alone = SegmentTree.from_endpoints(points)
            rows = _row_sets(*alone.column_encodings(column, parts, leaf, flag))
            assert got[at : at + len(column)] == rows
            assert rows == _scalar(points, column, parts, leaf, flag)
            # Definition 3.1 read literally also takes the empty gap
            # segments (-inf, -inf) and (inf, inf) into the partition of
            # a value reaching them; the tree leaves them out (the same
            # points either way), so such a value meets the paper only
            # through its leaf
            assert [
                rows
                for rows, value in zip(rows, column)
                if leaf or math.isfinite(value.left + value.right)
            ] == [
                sorted(interval_encodings(tree, k, value, parts, flag))
                for value in column
                if leaf or math.isfinite(value.left + value.right)
            ]
            for value, expected in zip(column, rows):
                served = tree.encodings(value, parts, leaf, flag)
                assert sorted(map(tuple, served.tolist())) == expected
                assert not served.size or np.shares_memory(
                    served, entry[4][parts, leaf, flag][0]
                )


def test_one_column_read_under_two_variables_is_in_both_batches():
    """A self-join reads ``R``'s first column under ``A`` and under
    ``B``: one batch per variable, each encoding it against its own
    tree."""
    query = parse_query("R([A],[B]) ∧ R([B],[C])")
    base = parse_query("R([A],[B])")
    db = random_database(base, 12, seed=FUZZ_SEED, domain=40.0, mean_length=6.0)
    reducer = ForwardReducer(query, db, disjoint=True, provenance=True)
    assert reducer._batches["A"][1] == {("R", 0): 0}
    assert reducer._batches["B"][1] == {("R", 1): 0, ("R", 0): len(db["R"].tuples)}
    fast = reducer.reduce()
    reference = naive_forward_reduce(query, db, True, True)
    assert result_digest(fast) == result_digest(reference)


@pytest.mark.parametrize(
    "text",
    ["triangle", "star3", "path3", "fig9e", "fig9f", POINT_ONLY],
)
def test_a_fresh_session_is_naive(text):
    query = {
        "triangle": catalog.triangle_ij,
        "star3": lambda: catalog.star_ij(3),
        "path3": lambda: catalog.path_ij(3),
        "fig9e": catalog.figure9e_ij,
        "fig9f": catalog.figure9f_ij,
    }.get(text, lambda: parse_query(text))()
    for factor in (2, 12):
        db = random_database(
            query, 10, seed=FUZZ_SEED + factor, domain=10.0 * factor,
            point_probability=0.3,
        )
        assert QuerySession(db).evaluate(query) == naive_evaluate(query, db)
        assert QuerySession(db).count(query) == naive_count(query, db)


def test_the_digit_dtype_is_a_function_of_the_row_count():
    """int32 while every row index fits, int64 from ``2**31`` rows —
    decided from the count alone, so the boundary costs no allocation."""
    assert digit_dtype(0) == digit_dtype(2**31 - 1) == np.int32
    assert digit_dtype(2**31) == digit_dtype(2**40) == np.int64
