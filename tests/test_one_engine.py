"""One engine, one representation: the invariants that let the tuple
tier leave ``src/``.

* **Representation** — every relation a reducer emits is a
  :class:`~repro.reduction.columnar.ColumnBlock` over the artifact's one
  :class:`~repro.reduction.columnar.CodeBook`, point-only atoms
  included, and stays one through evaluation, counting, digests, delta
  patches and a persist/reload round trip.
* **The door** — the public EJ entry points answer plain row relations,
  and every degenerate shape of them, exactly like ``tests/oracles``.
* **Wide keys** — rows that need more than 62 bits as one packed key are
  handled where keys are built, in every kernel and in
  ``ColumnarCounts.adjust``.
* **Big counts** — counts beyond ``int64`` are exact.
* **Retired names** — the kill switch, the ``reference`` parameter and
  the ``rows`` cache relation kind are gone.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import hashlib
import json
import os
import random
import re
import struct
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from oracles import ej as oracle
from test_columnar_bags import _relation
from test_columnar_eval import _assert_blocks

import repro
from repro.core import QuerySession, naive_count, naive_evaluate
from repro.core.cache_format import (
    MAGIC,
    _parse_frame,
    deserialize_result,
    load_result,
    serialize_result,
    validate_entry_bytes,
)
from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction
from repro.core.reduction_cache import FORMAT_VERSION, result_digest
from repro.engine import (
    Database,
    JoinAtom,
    Relation,
    columnar_materialise_bags,
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    count_ej,
    evaluate_ej,
    evaluate_ej_full,
    generic_join_boolean,
    generic_join_count,
    generic_join_relation,
)
from repro.engine.relation import Delta
from repro.intervals import Interval
from repro.queries import parse_query
from repro.queries.catalog import triangle_ij
from repro.reduction import forward as forward_module
from repro.reduction import forward_reduce, shift_distinct_left
from repro.reduction.columnar import (
    CODE_DTYPE,
    COL_CODE,
    COUNT_DTYPE,
    CodeBook,
    ColumnarCounts,
    ColumnBlock,
)
from repro.widths.tree_decomposition import TreeDecomposition
from repro.workloads import random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


def _seed(index: int) -> int:
    return 10_000 * FUZZ_SEED + index


def _blocks_of(atoms):
    return [atom.relation.columnar for atom in atoms]


def _tree(n, edges):
    tree = nx.Graph()
    tree.add_nodes_from(range(n))
    tree.add_edges_from(edges)
    return tree


# ----------------------------------------------------------------------
# representation: point-only atoms
# ----------------------------------------------------------------------

POINT_QUERY = "R([A],B) ∧ S([A]) ∧ T(B)"


def _point_db(rng):
    def iv():
        lo = rng.randint(0, 12)
        return Interval(lo, lo + rng.randint(0, 4))

    return Database(
        [
            Relation("R", ("A", "B"), {(iv(), rng.randint(0, 5)) for _ in range(14)}),
            Relation("S", ("A",), {(iv(),) for _ in range(10)}),
            Relation("T", ("B",), {(rng.randint(0, 5),) for _ in range(4)}),
        ]
    )


@pytest.mark.parametrize("disjoint", [False, True], ids=["plain", "disjoint"])
def test_point_only_atoms_are_blocks_and_stay_blocks(disjoint, tmp_path):
    """``T(B)`` has no interval variable: its variant is still a code
    matrix over the artifact's book, with refcounts, and nothing that
    reads, patches or persists the artifact changes that."""
    query = parse_query(POINT_QUERY)
    db = _point_db(random.Random(_seed(1)))
    source = shift_distinct_left(query, db) if disjoint else db
    result = forward_reduce(query, source, disjoint, disjoint)
    _assert_blocks(result)
    assert set(result.variant_counts) == set(result.database.relation_names)

    def check(artifact, truth_db):
        assert evaluate_disjunction(artifact) == naive_evaluate(query, truth_db)
        _assert_blocks(artifact)
        count = count_disjunction(artifact)
        if disjoint:
            assert count == naive_count(query, truth_db)
        _assert_blocks(artifact)
        result_digest(artifact)
        _assert_blocks(artifact)

    check(result, db)
    # a delete + insert through apply_delta; the disjoint reduction
    # reads the shifted copy, whose left endpoints must stay distinct,
    # so it gets its own tuples back
    mutated = db.clone()
    if disjoint:
        t_row = sorted(source["T"].tuples)[0]
        r_row = sorted(source["R"].tuples, key=repr)[0]
        deltas = [
            Delta(1, "delete", "T", t_row),
            Delta(2, "delete", "R", r_row),
            Delta(3, "insert", "R", r_row),
            Delta(4, "insert", "T", t_row),
        ]
    else:
        victim = sorted(db["T"].tuples)[0]
        deltas = [mutated.delete("T", victim), mutated.insert("T", (77,))]
        r_row = sorted(db["R"].tuples, key=repr)[0]
        deltas.append(mutated.insert("R", (r_row[0], 77)))
    for delta in deltas:
        result.apply_delta(delta)
        _assert_blocks(result)
    check(result, mutated)

    frame = serialize_result(result, FORMAT_VERSION)
    meta, _ = _parse_frame(frame, FORMAT_VERSION)
    assert {entry["kind"] for entry in meta["relations"]} == {"columnar"}
    path = tmp_path / "entry.red"
    path.write_bytes(frame)
    loaded = load_result(path, FORMAT_VERSION)
    assert loaded is not None
    assert result_digest(loaded) == result_digest(result)
    check(loaded, mutated)


@pytest.mark.parametrize("disjoint", [False, True], ids=["plain", "disjoint"])
def test_a_zero_arity_point_atom_patches_in_array_space(disjoint):
    """``T()`` derives the one width-0 row ``()``: a delete clears its
    refcount, an insert splices it back, and the block stays a block."""
    query = parse_query("R([A]) ∧ S([A]) ∧ T()")
    db = Database(
        [
            Relation("R", ("A",), {(Interval(0, 3),), (Interval(5, 6),)}),
            Relation("S", ("A",), {(Interval(2, 4),)}),
            Relation("T", (), {()}),
        ]
    )
    source = shift_distinct_left(query, db) if disjoint else db
    result = forward_reduce(query, source, disjoint, disjoint)
    (spec,) = result.atom_variants["T"]
    counts = result.variant_counts[spec.name()]
    assert counts.block.codes.shape == (1, 0)
    mutated = db.clone()
    for mutate, rows in [(mutated.delete, 0), (mutated.insert, 1)]:
        result.apply_delta(mutate("T", ()))
        _assert_blocks(result)
        assert counts.block.codes.shape == (rows, 0)
        assert counts.array.tolist() == [1] * rows
        assert list(counts.items()) == [((), 1)] * rows
        assert evaluate_disjunction(result) == naive_evaluate(query, mutated)
        if disjoint:
            assert count_disjunction(result) == naive_count(query, mutated)


def test_tuples_of_a_block_backed_relation_are_a_read_only_view():
    query = parse_query(POINT_QUERY)
    result = forward_reduce(query, _point_db(random.Random(_seed(1))))
    for relation in result.database:
        block = relation.columnar
        view = relation.tuples
        assert isinstance(view, frozenset) and len(view) == len(relation)
        assert relation.tuples is view  # decoded once per matrix
        assert relation.columnar is block
        with pytest.raises(AttributeError, match="block-backed"):
            relation.tuples = set()
    # a row-backed relation keeps its mutable set
    source = Relation("R", ("A",), [(1,)])
    source.tuples.add((2,))
    source.tuples = [(3,)]
    assert source.tuples == {(3,)} and source.columnar is None


# ----------------------------------------------------------------------
# the door: plain row relations, and every degenerate shape of them
# ----------------------------------------------------------------------

SHAPES = {
    "path": "R0(A,B) ∧ R1(B,C) ∧ R2(C,D)",
    "star": "R0(A,B) ∧ R1(A,C) ∧ R2(A,D)",
    "triangle": "R0(A,B) ∧ R1(B,C) ∧ R2(A,C)",
    "four_cycle": "R0(A,B) ∧ R1(B,C) ∧ R2(C,D) ∧ R3(D,A)",
    "cartesian_components": "R0(A,B) ∧ R1(B,C) ∧ R2(D) ∧ R3(E,F)",
    "wide_atom": "R0(A,B,C) ∧ R1(C,D) ∧ R2(D,A)",
}


def _row_db(query, rng, n, dom):
    return Database(
        Relation(
            atom.relation,
            atom.variable_names,
            {tuple(rng.randint(0, dom) for _ in atom.variables) for _ in range(n)},
        )
        for atom in query.atoms
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_public_entry_points_match_the_oracles_on_row_relations(shape):
    query = parse_query(SHAPES[shape])
    rng = random.Random(_seed(2))
    variables = [v.name for v in query.variables]
    for trial in range(6):
        # the last trial empties one relation
        db = _row_db(query, rng, rng.randint(1, 9), rng.choice((2, 4)))
        if trial == 5:
            db.replace(Relation(query.atoms[-1].relation, db[query.atoms[-1].relation].schema))
        for method in ("auto", "generic", "decomposition"):
            context = (shape, trial, method)
            assert evaluate_ej(query, db, method) == oracle.evaluate_ej(
                query, db, method
            ), context
            assert count_ej(query, db, method) == oracle.count_ej(
                query, db, method
            ), context
            for output in (None, variables[:2], []):
                got = evaluate_ej_full(query, db, output, method)
                want = oracle.evaluate_ej_full(query, db, output, method)
                assert got.schema == want.schema, (context, output)
                assert got.tuples == want.tuples, (context, output)
        atoms = [JoinAtom(db[a.relation], a.variable_names) for a in query.atoms]
        order = rng.sample(variables, len(variables))
        assert generic_join_count(atoms, order) == oracle.generic_join_count(
            atoms, order
        )
        assert generic_join_boolean(atoms, order) == oracle.generic_join_boolean(
            atoms, order
        )
        # the inputs stay the mutable row relations they were
        assert all(atom.relation.columnar is None for atom in atoms)


def test_degenerate_join_problems_match_the_oracles():
    unit = JoinAtom(Relation("Unit", (), [()]))
    none = JoinAtom(Relation("None", (), []))
    r = JoinAtom(Relation("R", ("A", "B"), [(1, 2), (1, 3), (4, 5)]))
    s = JoinAtom(Relation("S", ("B",), [(2,), (5,), (9,)]))
    empty = JoinAtom(Relation("E", ("A",), []))
    problems = {
        "no_atoms": [],
        "only_the_empty_tuple": [unit],
        "zero_arity_among_others": [r, unit, s],
        "empty_relation": [r, empty],
        "cartesian": [s, JoinAtom(Relation("U", ("C",), [(0,), (1,)]))],
    }
    for name, atoms in problems.items():
        assert generic_join_count(atoms) == oracle.generic_join_count(atoms), name
        assert generic_join_boolean(atoms) == oracle.generic_join_boolean(
            atoms
        ), name
        variables = sorted({v for atom in atoms for v in atom.variables})
        for output in (variables, variables[:1], []):
            got = generic_join_relation(atoms, output)
            want = oracle.generic_join_relation(atoms, output)
            assert (got.schema, got.tuples) == (want.schema, want.tuples), name
    # Yannakakis over zero-arity and empty atoms, connected and not
    for atoms, edges in (
        ([r, unit, s], [(0, 1), (0, 2)]),
        ([r, unit, s], [(0, 2)]),
        ([r, none, s], [(0, 1), (0, 2)]),
        ([r, empty], [(0, 1)]),
        ([], []),
    ):
        tree = _tree(len(atoms), edges)
        assert columnar_yannakakis_boolean(
            atoms, tree
        ) is oracle.yannakakis_boolean(atoms, tree)
        assert columnar_yannakakis_count(atoms, tree) == oracle.yannakakis_count(
            atoms, tree
        )
        for output in (None, ["A"], []):
            got = columnar_yannakakis_full(atoms, tree, output)
            want = oracle.yannakakis_full(atoms, tree, output)
            assert (got.schema, got.tuples) == (want.schema, want.tuples)


def test_the_kernels_raise_the_oracles_errors():
    atoms = [JoinAtom(Relation("R", ("A", "B"), [(1, 2)]))]
    for join in (generic_join_count, generic_join_boolean, oracle.generic_join_count):
        with pytest.raises(ValueError, match="cover exactly"):
            join(atoms, ["A"])
    with pytest.raises(ValueError, match="cover exactly"):
        generic_join_relation(atoms, ["A"], variable_order=["A", "B", "Z"])
    td = TreeDecomposition([frozenset("AB"), frozenset("BZ")], [(0, 1)])
    for materialise in (columnar_materialise_bags, oracle.materialise_bags):
        with pytest.raises(ValueError, match="covered by no atom"):
            materialise(atoms, td)


# ----------------------------------------------------------------------
# wide keys: more than 62 bits per row
# ----------------------------------------------------------------------

#: ~13.3 bits per code column: five shared columns need 66
WIDE_BOOK_SIZE = 10_000


def _coded(name, schema, rows, book):
    kinds = (COL_CODE,) * len(schema)
    return JoinAtom(_relation(name, schema, sorted(set(rows)), kinds, book))


def _wide_atoms(rng):
    """``R(A..E, F) ⋈ S(A..E, G) ⋈ T(G)`` over an identity book of
    10^4 values, cells drawn from both ends of the code range so every
    column's radix really is the book size."""
    book = CodeBook(range(WIDE_BOOK_SIZE))
    pool = [0, 1, WIDE_BOOK_SIZE - 2, WIDE_BOOK_SIZE - 1]

    def rows(n, width):
        return [tuple(rng.choice(pool) for _ in range(width)) for _ in range(n)]

    shared = rows(12, 5)
    r = [row + (rng.choice(pool),) for row in shared for _ in range(2)]
    s = [row + (rng.choice(pool),) for row in shared[:8] + rows(6, 5)]
    return [
        _coded("R", tuple("ABCDEF"), r, book),
        _coded("S", tuple("ABCDEG"), s, book),
        _coded("T", ("G",), [(pool[0],), (pool[3],)], book),
    ]


def test_wide_keys_through_every_kernel():
    rng = random.Random(_seed(3))
    atoms = _wide_atoms(rng)
    blocks = _blocks_of(atoms)
    assert WIDE_BOOK_SIZE**5 > 2**62
    tree = _tree(3, [(0, 1), (1, 2)])
    count = oracle.yannakakis_count(atoms, tree)
    assert count > 0
    assert columnar_yannakakis_count(atoms, tree) == count
    assert columnar_yannakakis_boolean(atoms, tree) is True
    assert generic_join_count(atoms) == count
    assert generic_join_boolean(atoms) is True
    for output in (None, ["F", "G"], ["A", "B", "C", "D", "E", "F"]):
        got = columnar_yannakakis_full(atoms, tree, output)
        want = oracle.yannakakis_full(atoms, tree, output)
        assert (got.schema, got.tuples) == (want.schema, want.tuples)
    got = generic_join_relation(atoms, list("ABCDEFG"))
    assert got.tuples == oracle.generic_join_relation(atoms, list("ABCDEFG")).tuples
    td = TreeDecomposition([frozenset("ABCDEF"), frozenset("ABCDEG")], [(0, 1)])
    for bag, reference in zip(
        columnar_materialise_bags(atoms, td), oracle.materialise_bags(atoms, td)
    ):
        assert bag.columnar.book is blocks[0].book
        assert bag.tuples == reference.tuples
    # a dead end: nothing of S survives T
    dead = atoms[:2] + [_coded("T", ("G",), [(2,)], blocks[0].book)]
    assert columnar_yannakakis_boolean(dead, tree) is False
    assert columnar_yannakakis_count(dead, tree) == 0
    assert generic_join_boolean(dead) is False
    # every input still has the very block it came with
    assert _blocks_of(atoms) == blocks


def test_wide_rows_adjust_in_array_space():
    """Six code columns over a 10^4-value book: insert an absent row,
    bump a present one, delete to zero — the block stays sorted and
    distinct, the refcounts parallel."""
    top = WIDE_BOOK_SIZE - 1
    codes = np.array(
        [
            [0, top, top, top, top, 1],
            [0, top, top, top, top, 7],
            [top, 0, 0, top, top, top],
        ],
        dtype=CODE_DTYPE,
    )
    codes.setflags(write=False)
    block = ColumnBlock(codes, (COL_CODE,) * 6, CodeBook(range(WIDE_BOOK_SIZE)))
    counts = ColumnarCounts(block, np.ones(3, dtype=COUNT_DTYPE))
    absent = np.array(
        [[0, top, top, top, top, 3], [top, top, 0, 0, 0, 0]], dtype=CODE_DTYPE
    )
    counts.adjust(np.concatenate([absent, codes[1:2]]), 1)
    assert block.codes.tolist() == [
        [0, top, top, top, top, 1],
        [0, top, top, top, top, 3],
        [0, top, top, top, top, 7],
        [top, 0, 0, top, top, top],
        [top, top, 0, 0, 0, 0],
    ]
    assert counts.array.tolist() == [1, 1, 2, 1, 1]
    counts.adjust(np.concatenate([absent[:1], codes[1:2], codes[:1]]), -1)
    assert block.codes.tolist() == [
        [0, top, top, top, top, 7],
        [top, 0, 0, top, top, top],
        [top, top, 0, 0, 0, 0],
    ]
    assert counts.array.tolist() == [1, 1, 1]
    # a delete of a row that is not there changes nothing
    counts.adjust(absent[:1], -1)
    assert counts.array.tolist() == [1, 1, 1] and block.row_count == 3
    assert codes.tolist()[0] == [0, top, top, top, top, 1]  # copy-on-write


def test_session_count_on_a_triangle_whose_keys_pass_62_bits(monkeypatch):
    """The end-to-end pin: with 100k values already in the artifact's
    book (a large instance interns as many on its own) three point
    columns alone need 51 key bits, and with its part columns (node
    ids, bounded by their tree — not by the book) every variant of the
    triangle passes 62; the bag join handles them in place and the
    artifact keeps every block."""
    monkeypatch.setattr(
        forward_module,
        "CodeBook",
        lambda: CodeBook(("pad", i) for i in range(100_000)),
    )
    query = parse_query(
        "R([A],[B],P,Q,U) ∧ S([B],[C],P,Q,U) ∧ T([A],[C],P,Q,U)"
    )
    plain = random_database(triangle_ij(), 12, seed=_seed(4), domain=36)
    db = Database(
        Relation(
            r.name,
            (*r.schema, "P", "Q", "U"),
            {(*t, i % 2, 0, 1) for i, t in enumerate(sorted(r.tuples, key=repr))},
        )
        for r in plain
    )
    session = QuerySession(db)
    assert session.count(query) == naive_count(query, db)
    assert session.evaluate(query, strategy="reduction") == naive_evaluate(
        query, db
    )
    stores = list(session._reductions.values())
    assert len(stores) == 2
    for result, *_ in stores:
        _assert_blocks(result)
        widest = max(result.database, key=lambda r: r.arity).columnar
        bits = sum(np.log2(widest.column_radix(j)) for j in range(widest.width))
        assert bits > 62
        assert sum(
            count_ej(ej, result.database) for ej in result.ej_queries
        ) == sum(oracle.count_ej(ej, result.database) for ej in result.ej_queries)
        _assert_blocks(result)


# ----------------------------------------------------------------------
# big counts: beyond int64
# ----------------------------------------------------------------------


def test_cartesian_count_beyond_int64():
    book = CodeBook(range(1000))
    rows = [(i,) for i in range(1000)]
    atoms = [_coded(f"R{i}", (f"X{i}",), rows, book) for i in range(7)]
    blocks = _blocks_of(atoms)
    assert 1000**7 > 2**62
    for edges in ([], [(i, i + 1) for i in range(6)], [(0, i) for i in range(1, 7)]):
        tree = _tree(7, edges)
        assert columnar_yannakakis_count(atoms, tree) == 1000**7
        assert oracle.yannakakis_count(atoms, tree) == 1000**7
    query = parse_query(" ∧ ".join(f"R{i}(X{i})" for i in range(7)))
    db = Database(atom.relation for atom in atoms)
    assert count_ej(query, db) == 1000**7
    assert evaluate_ej(query, db) is True
    assert _blocks_of(atoms) == blocks


def test_messages_that_overflow_mid_sweep_stay_exact():
    """``R(A) ⋈ M(A,B) ⋈ L0(B,X0) ⋈ … ⋈ L7(B,X7)``: M's per-row count
    passes 2^62 at the seventh leaf, keeps multiplying at the eighth,
    and is then group-summed into R — all in Python ints."""
    book = CodeBook(range(1000))
    heavy, light = 0, 1
    leaf_rows = [(heavy, x) for x in range(1000)] + [(light, x) for x in range(3)]
    atoms = [
        _coded("R", ("A",), [(5,), (6,)], book),
        _coded("M", ("A", "B"), [(5, heavy), (5, light), (6, light), (7, heavy)], book),
    ] + [_coded(f"L{i}", ("B", f"X{i}"), leaf_rows, book) for i in range(8)]
    tree = _tree(10, [(0, 1)] + [(1, i) for i in range(2, 10)])
    expected = (1000**8 + 3**8) + 3**8
    assert expected > 2**62
    assert oracle.yannakakis_count(atoms, tree) == expected
    assert columnar_yannakakis_count(atoms, tree) == expected
    # rooted elsewhere the same total flows through other edges
    assert columnar_yannakakis_count(
        atoms[::-1], nx.relabel_nodes(tree, {i: 9 - i for i in range(10)})
    ) == expected
    assert all(block is not None for block in _blocks_of(atoms))


# ----------------------------------------------------------------------
# the retired names
# ----------------------------------------------------------------------


def _reframe(frame: bytes, edit) -> bytes:
    """``frame`` with its metadata edited and the digest recomputed —
    what another writer of the same format version could have left."""
    meta, blob_base = _parse_frame(frame, FORMAT_VERSION)
    edit(meta)
    meta_bytes = json.dumps(meta).encode("utf-8")
    body = struct.pack("<Q", len(meta_bytes)) + meta_bytes
    body += b"\x00" * ((-(48 + len(meta_bytes))) % 64)
    body += frame[blob_base:]
    return MAGIC + hashlib.sha256(body).digest() + body


def test_the_retired_names_are_gone():
    with pytest.raises(ImportError):
        from repro.engine import use_columnar_kernels  # noqa: F401
    query = parse_query("R([A]) ∧ S([A])")
    db = random_database(query, 6, seed=1, domain=12)
    with pytest.raises(TypeError):
        forward_reduce(query, db, reference=True)
    package = Path(repro.__file__).parent
    importing = re.compile(r"^\s*(from|import)\s+(tests\.)?oracles\b", re.MULTILINE)
    for source in package.rglob("*.py"):
        assert not importing.search(source.read_text()), source
    assert not (package / "engine" / "yannakakis.py").exists()

    # a v5 frame that still carries a "rows" relation is a miss
    result = forward_reduce(query, db)
    frame = serialize_result(result, FORMAT_VERSION)
    assert deserialize_result(frame, FORMAT_VERSION) is not None

    def to_rows(meta):
        entry = meta["relations"][0]
        entry.update(kind="rows", rows=[], counts=[])

    legacy = _reframe(frame, to_rows)
    assert validate_entry_bytes(legacy, FORMAT_VERSION)
    assert deserialize_result(legacy, FORMAT_VERSION) is None
    # the reframing itself is faithful
    assert deserialize_result(_reframe(frame, lambda meta: None), FORMAT_VERSION) is not None
