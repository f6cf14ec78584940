"""A segment-tree node is an integer: the heap-index tree against the
paper's recursive definition, the production path's independence from
the string vocabulary, and the exactness and bounds guards the array
form needs."""

import gc
import random
import sys
import tracemalloc

import pytest
from oracles.reduction import apply_delta_rows, naive_forward_reduce
from oracles.segment_tree import canonical_partition, complete_tree
from test_delta_maintenance import _in_domain_tuple

from repro.core import QuerySession, naive_count, naive_evaluate
from repro.core.cache_format import load_result, serialize_result
from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction
from repro.core.reduction_cache import FORMAT_VERSION, result_digest
from repro.engine import Database, Relation
from repro.intervals import Interval, SegmentTree, bitstring, segment_tree
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce, shift_distinct_left
from repro.reduction.columnar import COL_BITS
from repro.workloads import random_database


# ----------------------------------------------------------------------
# (a) index arithmetic ≡ the recursive complete tree
# ----------------------------------------------------------------------


@pytest.mark.parametrize("m", range(0, 129))
def test_heap_index_tree_is_the_papers_complete_tree(m):
    rng = random.Random(m)
    points = sorted(rng.sample(range(-500, 500), m))
    reference = complete_tree(points)
    tree = SegmentTree.from_endpoints(points)
    assert sorted(tree.bitstrings()) == sorted(reference)
    assert tree.size == len(reference)
    assert tree.height == max(map(len, reference))
    for b, (lo, hi, lo_open, hi_open, _) in reference.items():
        seg = tree.seg(b)
        assert (seg.lo, seg.hi, seg.lo_open, seg.hi_open) == (
            lo, hi, lo_open, hi_open,
        ), b
    leaves = [b for b, node in sorted(reference.items()) if node[-1]]
    assert [leaf.bitstring for leaf in tree.leaves()] == leaves
    for p in points + [points[0] - 1, points[-1] + 1] if points else [0]:
        leaf = tree.leaf_of_point(p)
        assert leaf in leaves and tree.seg(leaf).contains_point(p)
    pairs = (
        [(a, b) for a in points for b in points if a <= b]
        if m <= 12
        else [tuple(sorted(rng.sample(points, 2))) for _ in range(20)]
    )
    for left, right in pairs:
        assert tree.canonical_partition(
            Interval(left, right)
        ) == canonical_partition(reference, left, right)
    # off-domain intervals: the maximal nodes inside, however short
    for _ in range(10):
        left = rng.uniform(-510, 510)
        right = left + rng.uniform(0, 300)
        assert tree.canonical_partition(
            Interval(left, right)
        ) == canonical_partition(reference, left, right)


def test_figure_3_exactly():
    reference = complete_tree([1, 4, 3, 4])
    assert sorted(b for b, node in reference.items() if node[-1]) == [
        "000", "001", "010", "011", "100", "101", "11",
    ]
    assert canonical_partition(reference, 1, 4) == ["001", "01", "10"]
    tree = SegmentTree([Interval(1, 4), Interval(3, 4)])
    assert sorted(tree.bitstrings()) == sorted(reference)
    assert tree.cp_ids(Interval(1, 4)) == [0b1001, 0b101, 0b110]
    assert tree.leaf_id(3.5) == 0b1100 and tree.id_bound == 16


# ----------------------------------------------------------------------
# (c) no strings on the production path
# ----------------------------------------------------------------------


def _poison_the_string_vocabulary(monkeypatch):
    def poisoned(*args, **kwargs):
        raise AssertionError("the production path spoke bitstrings")

    originals = {bitstring.splits, bitstring.bits, bitstring.node_id}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    monkeypatch.setattr(module, name, poisoned)
    for view in (
        "bitstrings", "seg", "leaves", "canonical_partition",
        "leaf_of_point", "leaf_of_interval", "__contains__",
    ):
        monkeypatch.setattr(SegmentTree, view, poisoned)


def test_no_strings_on_the_production_path(monkeypatch, tmp_path):
    query = catalog.triangle_ij()
    db = random_database(query, 14, seed=3, domain=30.0, mean_length=6.0)
    shifted = shift_distinct_left(query, db)
    expected_count = naive_count(query, db)
    _poison_the_string_vocabulary(monkeypatch)
    with pytest.raises(AssertionError):
        SegmentTree([Interval(0, 1)]).canonical_partition(Interval(0, 1))

    result = forward_reduce(query, db)
    rng = random.Random(5)
    mutated = db.clone()
    for loaded in (False, True):
        row = _in_domain_tuple(result, "R", rng)
        victim = sorted(mutated["S"].tuples, key=repr)[0]
        for delta in (mutated.insert("R", row), mutated.delete("S", victim)):
            if delta is not None:
                result.apply_delta(delta)
        assert evaluate_disjunction(result) == naive_evaluate(query, mutated)
        if not loaded:
            path = tmp_path / "entry.red"
            path.write_bytes(serialize_result(result, FORMAT_VERSION))
            result = load_result(path, FORMAT_VERSION)
            assert result is not None

    counting = forward_reduce(query, shifted, disjoint=True, provenance=True)
    path = tmp_path / "count.red"
    path.write_bytes(serialize_result(counting, FORMAT_VERSION))
    assert count_disjunction(counting) == expected_count
    assert count_disjunction(load_result(path, FORMAT_VERSION)) == expected_count


# ----------------------------------------------------------------------
# (d) builder ≡ the string-speaking oracle on every catalog query
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(catalog.PAPER_IJ_QUERIES))
def test_catalog_digest_identity_with_the_bitstring_oracle(name):
    """Decoded, the array artifact is the oracle's, row for row and
    refcount for refcount.  The queries with several 3-way variables
    per atom derive 10^5 rows from two tuples per relation; hashing
    those is most of a minute, so they are compared as the sets and
    dicts the digest is computed from."""
    query = catalog.PAPER_IJ_QUERIES[name]()
    heavy = {"lw4": 1, "fig9a": 2, "fig9b": 2}.get(name)
    db = random_database(
        query, heavy or 4, seed=7, domain=12.0, mean_length=4.0
    )
    for disjoint, provenance in ((False, False), (True, True)):
        fast = forward_reduce(query, db, disjoint, provenance)
        reference = naive_forward_reduce(query, db, disjoint, provenance)
        assert fast.database.relation_names == reference.database.relation_names
        for relation in reference.database:
            assert fast.database[relation.name].schema == relation.schema
            assert fast.database[relation.name].tuples == relation.tuples
        assert reference.variant_counts == {
            name: dict(counts.items())
            for name, counts in fast.variant_counts.items()
        }
        assert fast.tuple_order == reference.tuple_order
        assert fast.atom_variants == reference.atom_variants
        assert repr(fast.encoded_queries) == repr(reference.encoded_queries)
        if not heavy:
            assert result_digest(fast) == result_digest(reference)
        # every part the oracle spells out is a cell, not a book value
        assert not any(isinstance(v, str) for v in fast.codebook.values)


# ----------------------------------------------------------------------
# (f) a load rebuilds nothing per node
# ----------------------------------------------------------------------


def test_loading_a_ten_thousand_endpoint_tree_allocates_no_node_objects(
    tmp_path,
):
    query = parse_query("R([A]) ∧ S([A])")
    db = random_database(query, 5, seed=1, domain=20.0)
    result = forward_reduce(query, db)
    # the frame stores a tree as its endpoint list and nothing else
    result.segment_trees["A"] = SegmentTree.from_endpoints(range(10_000))
    path = tmp_path / "entry.red"
    path.write_bytes(serialize_result(result, FORMAT_VERSION))
    assert not hasattr(segment_tree, "SegmentTreeNode")
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        loaded = load_result(path, FORMAT_VERSION)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tree = loaded.segment_trees["A"]
    assert tree.size == 40_001 and tree.height == 15
    # 40,001 node objects with their segments were > 10 MB and > 80,000
    # tracked objects; the endpoint list is a few hundred kB and one list
    assert retained < 2_000_000
    assert len(gc.get_objects()) - objects_before < 2_000
    assert tree.cp_ids(Interval(17, 9_001))[:2] == [tree.leaf_id(17), 0b10000000001001]


# ----------------------------------------------------------------------
# exactness and bounds
# ----------------------------------------------------------------------

BIG = 2**53


def test_adjacent_integers_past_2_53_stay_two_leaves(tmp_path):
    """``float(2**53) == float(2**53 + 1)``: an endpoint order decided
    by a ``float64`` cast would merge them.  Triangle over endpoints
    ``2**53 .. 2**53 + 3``: fresh ≡ warm-from-cache ≡ patched ≡ naive,
    and the count goes 1 → 2 on one in-domain insert."""
    assert float(BIG) == float(BIG + 1)
    tree = SegmentTree([Interval(BIG, BIG + 1)])
    assert tree.leaf_id(BIG) != tree.leaf_id(BIG + 1)
    assert tree.endpoints == (BIG, BIG + 1)

    def iv(a, b):
        return Interval(BIG + a, BIG + b)

    query = catalog.triangle_ij()
    db = Database(
        [
            Relation("R", ("A", "B"), {(iv(0, 1), iv(2, 3)), (iv(2, 2), iv(0, 0))}),
            Relation("S", ("B", "C"), {(iv(3, 3), iv(0, 0)), (iv(1, 1), iv(3, 3))}),
            Relation("T", ("A", "C"), {(iv(1, 2), iv(0, 1)), (iv(3, 3), iv(2, 2))}),
        ]
    )
    session = QuerySession(db, cache_dir=tmp_path)
    assert session.count(query) == naive_count(query, db) == 1
    assert session.evaluate(query, strategy="reduction") is True
    warm = QuerySession(db, cache_dir=tmp_path)
    assert warm.count(query) == 1 and warm.stats.reductions == 0
    fresh = forward_reduce(query, db)
    path = tmp_path / "entry.red"
    path.write_bytes(serialize_result(fresh, FORMAT_VERSION))
    loaded = load_result(path, FORMAT_VERSION)
    assert result_digest(loaded) == result_digest(fresh)
    assert result_digest(fresh) == result_digest(naive_forward_reduce(query, db))

    row = (iv(1, 1), iv(3, 3))  # endpoints all in the domain
    patched_before = session.stats.delta_patches
    reference = naive_forward_reduce(query, db)
    delta = db.insert("R", row)
    loaded.apply_delta(delta)
    apply_delta_rows(reference, delta)
    assert result_digest(loaded) == result_digest(reference)
    assert evaluate_disjunction(loaded) is evaluate_disjunction(
        forward_reduce(query, db)
    )
    assert session.evaluate(query, strategy="reduction") is True
    assert session.stats.delta_patches > patched_before
    assert session.count(query) == naive_count(query, db) == 2
    assert QuerySession(db, cache_dir=tmp_path).count(query) == 2


def test_a_tree_too_deep_for_uint32_ids_is_refused(monkeypatch):
    monkeypatch.setattr(segment_tree, "MAX_HEIGHT", 3)
    assert SegmentTree.from_endpoints(range(3)).height == 3
    with pytest.raises(OverflowError):
        SegmentTree.from_endpoints(range(4))
    assert segment_tree.MAX_HEIGHT == 3 and (2 << 30) <= 2**32 - 1


def test_a_bits_column_knows_its_bound_without_a_scan(tmp_path):
    query = catalog.triangle_ij()
    db = random_database(query, 10, seed=2, domain=25.0)
    result = forward_reduce(query, db, disjoint=True, provenance=True)
    path = tmp_path / "entry.red"
    path.write_bytes(serialize_result(result, FORMAT_VERSION))
    for artifact in (result, load_result(path, FORMAT_VERSION)):
        for relation in artifact.database:
            block = relation.columnar
            for j, (kind, name) in enumerate(zip(block.kinds, relation.schema)):
                if kind != COL_BITS:
                    continue
                variable = name.split("#")[0].split("_")[0][0]
                bound = artifact.segment_trees[variable].id_bound
                assert block.bounds[j] == bound
                assert int(block.codes[:, j].max(initial=0)) < bound

                class NoScan:
                    shape = block.codes.shape

                    def __getitem__(self, _):
                        raise AssertionError("column_radix scanned a column")

                codes, block.codes = block.codes, NoScan()
                try:
                    assert block.column_radix(j) == bound
                finally:
                    block.codes = codes
