"""EJ engine tests: relations, generic join, Yannakakis, decompositions,
and the dispatcher — the array kernels (fed plain row relations, so
through their door) and the tuple oracles of ``tests/oracles`` side by
side, both cross-validated against brute force."""

import random
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from oracles import ej as oracle

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
    relation_from_mapping,
)
from repro.engine.ej import plan_ej
from repro.hypergraph import join_tree
from repro.queries import parse_query


class TestRelation:
    def test_set_semantics(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 2), (3, 4)])
        assert len(r) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Relation("R", ("A", "B"), [(1,)])

    def test_duplicate_attribute(self):
        with pytest.raises(ValueError):
            Relation("R", ("A", "A"), [])

    def test_project(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3)])
        p = r.project(["A"])
        assert p.tuples == {(1,)}

    def test_select(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        s = r.select(lambda row: row["A"] > 2)
        assert s.tuples == {(3, 4)}

    def test_rename(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        assert r.rename({"A": "X"}).schema == ("X", "B")

    def test_natural_join(self):
        r = Relation("R", ("A", "B"), [(1, 2), (2, 3)])
        s = Relation("S", ("B", "C"), [(2, 9), (3, 7), (3, 8)])
        j = r.join(s)
        assert j.tuples == {(1, 2, 9), (2, 3, 7), (2, 3, 8)}

    def test_join_no_shared_is_cross(self):
        r = Relation("R", ("A",), [(1,), (2,)])
        s = Relation("S", ("B",), [(5,)])
        assert len(r.join(s)) == 2

    def test_semijoin(self):
        r = Relation("R", ("A", "B"), [(1, 2), (2, 3)])
        s = Relation("S", ("B",), [(2,)])
        assert r.semijoin(s).tuples == {(1, 2)}

    def test_semijoin_no_shared(self):
        r = Relation("R", ("A",), [(1,)])
        assert len(r.semijoin(Relation("S", ("B",), [(9,)]))) == 1
        assert len(r.semijoin(Relation("S", ("B",), []))) == 0

    def test_from_mapping(self):
        r = relation_from_mapping("R", ("A", "B"), [{"A": 1, "B": 2}])
        assert (1, 2) in r

    def test_database(self):
        db = Database([Relation("R", ("A",), [(1,)])])
        assert "R" in db and db.size == 1
        with pytest.raises(ValueError):
            db.add(Relation("R", ("A",), []))


def brute_force_assignments(atoms):
    """All satisfying assignments by enumeration."""
    variables = []
    for atom in atoms:
        for v in atom.variables:
            if v not in variables:
                variables.append(v)
    results = set()
    domains = {
        v: sorted(
            {
                t[a.variables.index(v)]
                for a in atoms if v in a.variables
                for t in a.relation.tuples
            }
        )
        for v in variables
    }
    for combo in product(*(domains[v] for v in variables)):
        assignment = dict(zip(variables, combo))
        if all(
            tuple(assignment[v] for v in a.variables) in a.relation.tuples
            for a in atoms
        ):
            results.add(combo)
    return variables, results


def random_atoms(rng, shape, n, dom):
    atoms = []
    for i, schema in enumerate(shape):
        tuples = {
            tuple(rng.randint(0, dom) for _ in schema) for _ in range(n)
        }
        atoms.append(JoinAtom(Relation(f"R{i}", schema, tuples)))
    return atoms


SHAPES = [
    [("A", "B"), ("B", "C")],
    [("A", "B"), ("B", "C"), ("A", "C")],
    [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")],
    [("A", "B", "C"), ("C", "D")],
    [("A",), ("A", "B"), ("B",)],
]


class TestGenericJoin:
    def test_against_brute_force(self):
        rng = random.Random(0)
        for shape in SHAPES:
            for trial in range(8):
                atoms = random_atoms(rng, shape, rng.randint(1, 8), 4)
                variables, expected = brute_force_assignments(atoms)
                got = {
                    tuple(a[v] for v in variables)
                    for a in oracle.generic_join(atoms)
                }
                assert got == expected, (shape, trial)
                assert generic_join_relation(atoms, variables).tuples == expected
                assert generic_join_count(atoms) == len(expected)
                assert generic_join_boolean(atoms) == bool(expected)

    def test_explicit_variable_order(self):
        atoms = [
            JoinAtom(Relation("R", ("A", "B"), [(1, 2)])),
            JoinAtom(Relation("S", ("B", "C"), [(2, 3)])),
        ]
        order = ["C", "B", "A"]
        got = list(oracle.generic_join(atoms, variable_order=order))
        assert got == [{"C": 3, "B": 2, "A": 1}]
        assert generic_join_count(atoms, variable_order=order) == 1
        assert generic_join_relation(
            atoms, order, variable_order=order
        ).tuples == {(3, 2, 1)}

    def test_bad_variable_order(self):
        atoms = [JoinAtom(Relation("R", ("A",), [(1,)]))]
        for join in (
            oracle.generic_join_count,
            generic_join_count,
            generic_join_boolean,
        ):
            with pytest.raises(ValueError, match="cover exactly"):
                join(atoms, variable_order=["A", "Z"])

    def test_self_join_binding(self):
        r = Relation("E", ("X", "Y"), [(1, 2), (2, 3)])
        atoms = [JoinAtom(r, ("A", "B")), JoinAtom(r, ("B", "C"))]
        got = {tuple(a[v] for v in "ABC") for a in oracle.generic_join(atoms)}
        assert got == {(1, 2, 3)}
        assert generic_join_relation(atoms, "ABC").tuples == {(1, 2, 3)}

    def test_binding_arity_check(self):
        r = Relation("E", ("X", "Y"), [])
        with pytest.raises(ValueError):
            JoinAtom(r, ("A",))


class TestYannakakis:
    def _tree(self, atoms, query_text):
        q = parse_query(query_text)
        label_tree = join_tree(q.hypergraph())
        index = {a.label: i for i, a in enumerate(q.atoms)}
        t = nx.Graph()
        t.add_nodes_from(range(len(atoms)))
        t.add_edges_from((index[a], index[b]) for a, b in label_tree.edges)
        return t

    def test_boolean_and_count_match_generic(self):
        rng = random.Random(1)
        text = "R0(A,B) ∧ R1(B,C) ∧ R2(C,D) ∧ R3(B,E)"
        shape = [("A", "B"), ("B", "C"), ("C", "D"), ("B", "E")]
        for trial in range(15):
            atoms = random_atoms(rng, shape, rng.randint(1, 10), 3)
            tree = self._tree(atoms, text)
            count = oracle.generic_join_count(atoms)
            assert generic_join_count(atoms) == count
            for tier in (oracle.yannakakis_count, columnar_yannakakis_count):
                assert tier(atoms, tree) == count
            for tier in (oracle.yannakakis_boolean, columnar_yannakakis_boolean):
                assert tier(atoms, tree) == (count > 0)

    def test_full_multi_child_projection(self):
        """Regression: a node with two children must keep its own join
        attributes between child joins (bug fixed during development)."""
        rng = random.Random(2)
        text = "R0(A,B) ∧ R1(A,C) ∧ R2(A,D)"
        shape = [("A", "B"), ("A", "C"), ("A", "D")]
        for trial in range(15):
            atoms = random_atoms(rng, shape, rng.randint(1, 8), 3)
            tree = self._tree(atoms, text)
            variables, expected = brute_force_assignments(atoms)
            for tier in (oracle.yannakakis_full, columnar_yannakakis_full):
                full = tier(atoms, tree)
                got = {
                    tuple(t[full.schema.index(v)] for v in variables)
                    for t in full.tuples
                }
                assert got == expected, trial

    def test_full_projected_output(self):
        atoms = [
            JoinAtom(Relation("R", ("A", "B"), [(1, 2), (5, 6)])),
            JoinAtom(Relation("S", ("B", "C"), [(2, 3)])),
        ]
        tree = nx.Graph()
        tree.add_edge(0, 1)
        for tier in (oracle.yannakakis_full, columnar_yannakakis_full):
            out = tier(atoms, tree, output=["A", "C"])
            assert out.tuples == {(1, 3)}

    def test_empty_relation_false(self):
        atoms = [
            JoinAtom(Relation("R", ("A",), [])),
            JoinAtom(Relation("S", ("A",), [(1,)])),
        ]
        tree = nx.Graph()
        tree.add_edge(0, 1)
        assert not oracle.yannakakis_boolean(atoms, tree)
        assert oracle.yannakakis_count(atoms, tree) == 0
        assert not columnar_yannakakis_boolean(atoms, tree)
        assert columnar_yannakakis_count(atoms, tree) == 0


class TestDecompositionEval:
    def test_triangle_consistency(self):
        rng = random.Random(3)
        q = parse_query("R0(A,B) ∧ R1(B,C) ∧ R2(A,C)")
        shape = [("A", "B"), ("B", "C"), ("A", "C")]
        td = plan_ej(q.hypergraph(), method="decomposition").td
        for trial in range(15):
            atoms = random_atoms(rng, shape, rng.randint(1, 10), 3)
            _, expected = brute_force_assignments(atoms)
            from repro.engine import bag_atoms_and_tree

            bags = bag_atoms_and_tree(atoms, td)
            assert columnar_yannakakis_boolean(*bags) == bool(expected)
            assert columnar_yannakakis_count(*bags) == len(expected)

    def test_materialise_bags_cover(self):
        q = parse_query("R0(A,B) ∧ R1(B,C) ∧ R2(A,C)")
        td = plan_ej(q.hypergraph(), method="decomposition").td
        atoms = [
            JoinAtom(Relation("R0", ("A", "B"), [(1, 2)])),
            JoinAtom(Relation("R1", ("B", "C"), [(2, 3)])),
            JoinAtom(Relation("R2", ("A", "C"), [(1, 3)])),
        ]
        bags = columnar_materialise_bags(atoms, td)
        assert all(len(b) >= 1 for b in bags)
        assert [b.tuples for b in bags] == [
            b.tuples for b in oracle.materialise_bags(atoms, td)
        ]

    def test_decomposition_with_singletons(self):
        """the decomposition plan must cover edges with singleton vars."""
        q = parse_query("R(A,B,X) ∧ S(B,C,Y) ∧ T(A,C)")
        td = plan_ej(q.hypergraph(), method="decomposition").td
        td.validate(q.hypergraph())


class TestDispatcher:
    def test_methods_agree(self):
        rng = random.Random(4)
        q = parse_query("R0(A,B) ∧ R1(B,C) ∧ R2(A,C)")
        for trial in range(10):
            db = Database(
                [
                    Relation(
                        f"R{i}",
                        s,
                        {
                            (rng.randint(0, 3), rng.randint(0, 3))
                            for _ in range(6)
                        },
                    )
                    for i, s in enumerate(
                        [("A", "B"), ("B", "C"), ("A", "C")]
                    )
                ]
            )
            generic = evaluate_ej(q, db, "generic")
            decomp = evaluate_ej(q, db, "decomposition")
            auto = evaluate_ej(q, db, "auto")
            assert generic == decomp == auto
            assert count_ej(q, db, "generic") == count_ej(q, db, "auto")

    def test_acyclic_auto_uses_yannakakis(self):
        q = parse_query("R0(A,B) ∧ R1(B,C)")
        db = Database(
            [
                Relation("R0", ("A", "B"), [(1, 2)]),
                Relation("R1", ("B", "C"), [(2, 3)]),
            ]
        )
        assert evaluate_ej(q, db)
        assert count_ej(q, db) == 1
        full = evaluate_ej_full(q, db, output=["A", "C"])
        assert full.tuples == {(1, 3)}

    def test_rejects_ij_query(self):
        q = parse_query("R([A])")
        db = Database([Relation("R", ("A",), [])])
        with pytest.raises(ValueError):
            evaluate_ej(q, db)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
)
def test_triangle_property(r, s, t):
    """evaluate_ej on the triangle agrees with direct enumeration."""
    q = parse_query("R(A,B) ∧ S(B,C) ∧ T(A,C)")
    db = Database(
        [
            Relation("R", ("A", "B"), r),
            Relation("S", ("B", "C"), s),
            Relation("T", ("A", "C"), t),
        ]
    )
    expected = False
    for (a, b) in r:
        for (b2, c) in s:
            if b == b2 and (a, c) in t:
                expected = True
    assert evaluate_ej(q, db, "auto") == expected
