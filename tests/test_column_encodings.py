"""Whole-column forward reduction: ``SegmentTree.column_encodings``
against the scalar walk and the paper's recursive tree, the edges the
array form makes reachable, which path serves a relation and which a
tuple, and the wide-key dedup.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import os
import random
import sys
from collections import Counter

import numpy as np
import pytest
from oracles.reduction import apply_delta_rows, naive_forward_reduce
from oracles.segment_tree import canonical_partition, complete_tree
from test_delta_maintenance import _in_domain_tuple

from repro.core.reduction_cache import result_digest
from repro.engine import Database, Relation
from repro.intervals import Interval, SegmentTree, bitstring, segment_tree, splits
from repro.intervals.bitstring import bits
from repro.queries import catalog, parse_query
from repro.reduction import ForwardReducer, forward_reduce
from repro.reduction.columnar import distinct_rows
from repro.reduction.forward import _VariantLayout
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
    leaves = [b for b, node in reference.items() if node[-1]]
    for parts, leaf, flag in VARIANTS:
        tree = SegmentTree.from_endpoints(points)
        matrix, starts, counts = tree.column_encodings(values, parts, leaf, flag)
        assert matrix.dtype == np.uint32 and not matrix.flags.writeable
        assert matrix.shape == (int(counts.sum()), parts)
        got = _row_sets(matrix, starts, counts)
        assert got == _scalar(points, values, parts, leaf, flag)
        for value, rows in zip(values, got):
            if leaf:
                nodes = [
                    b
                    for b in leaves
                    if _contains(reference[b], value.left)
                ]
                assert len(nodes) == 1
            else:
                nodes = canonical_partition(reference, value.left, value.right)
            expected = sorted(
                split
                for node in nodes
                for split in splits(node, parts)
                if not (flag and parts > 1 and split[-1] == "")
            )
            assert sorted(tuple(bits(c) for c in row) for row in rows) == expected
            # and the scalar entry point now answers from the column
            served = tree.encodings(value, parts, leaf, flag)
            assert not served.flags.writeable
            assert len(served) == 0 or np.shares_memory(served, matrix)


def _contains(node, p):
    lo, hi, lo_open, hi_open, _ = node
    return (lo < p or (lo == p and not lo_open)) and (
        p < hi or (p == hi and not hi_open)
    )


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

    # the same through the builder: eight part columns of a 2-way,
    # 4-variable pair plus the provenance id pass 64 bits at n = 16
    query = parse_query("R([A],[B],[C],[D]) ∧ S([A],[B],[C],[D])")
    db = random_database(query, 16, seed=FUZZ_SEED, domain=160.0, mean_length=6.0)
    fast = forward_reduce(query, db, disjoint=True, provenance=True)
    widest = max(
        float(np.prod(counts.block.codes.max(axis=0).astype(np.float64) + 1))
        for counts in fast.variant_counts.values()
    )
    assert widest > 2.0**64
    monkeypatch.undo()
    reference = naive_forward_reduce(query, db, disjoint=True, provenance=True)
    for relation in reference.database:
        assert fast.database[relation.name].tuples == relation.tuples
    assert reference.variant_counts == {
        name: dict(counts.items()) for name, counts in fast.variant_counts.items()
    }
