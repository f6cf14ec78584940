"""Workload generator tests."""

import pytest

from repro.core import naive_evaluate
from repro.intervals import Interval
from repro.queries import catalog
from repro.workloads import (
    ej_triangle_hard_instance,
    embed_ej_into_ij,
    point_database,
    quadratic_intermediate_triangle,
    random_database,
    spatial_join_database,
    spatial_rectangles,
    temporal_database,
    temporal_sessions,
)


class TestRandomDatabase:
    def test_shape(self):
        q = catalog.triangle_ij()
        db = random_database(q, 20, seed=0)
        assert set(db.relation_names) == {"R", "S", "T"}
        for r in db:
            assert len(r) == 20
            for t in r.tuples:
                assert all(isinstance(x, Interval) for x in t)

    def test_deterministic_by_seed(self):
        q = catalog.triangle_ij()
        a = random_database(q, 10, seed=7)
        b = random_database(q, 10, seed=7)
        for name in a.relation_names:
            assert a[name].tuples == b[name].tuples

    def test_different_seeds_differ(self):
        q = catalog.triangle_ij()
        a = random_database(q, 10, seed=1)
        b = random_database(q, 10, seed=2)
        assert any(
            a[name].tuples != b[name].tuples for name in a.relation_names
        )

    def test_point_database_is_points(self):
        q = catalog.triangle_ij()
        db = point_database(q, 10, seed=0)
        for r in db:
            for t in r.tuples:
                assert all(x.is_point for x in t)

    def test_integer_intervals(self):
        q = catalog.figure9f_ij()
        db = random_database(q, 10, seed=0, integer=True, domain=50)
        for r in db:
            for t in r.tuples:
                for x in t:
                    assert float(x.left).is_integer()

    def test_mixed_eij_columns(self):
        from repro.queries import parse_query

        q = parse_query("R([A], K) ∧ S([A], K)")
        db = random_database(q, 5, seed=3)
        for t in db["R"].tuples:
            assert isinstance(t[0], Interval)
            assert isinstance(t[1], int)


    def test_self_join_shares_one_relation(self):
        from repro.core import naive_count
        from repro.queries import parse_query

        q = parse_query("R([A],[B]) ∧ R([B],[C])")
        db = random_database(q, 12, seed=3, domain=40.0)
        assert list(db.relation_names) == ["R"] and len(db["R"]) == 12
        assert naive_count(q, db) >= 0
        # a self-join-free query draws exactly what it always drew
        plain = random_database(parse_query("R([A],[B])"), 12, seed=3, domain=40.0)
        assert plain["R"].tuples == db["R"].tuples

    def test_one_symbol_with_two_arities_is_refused(self):
        from repro.queries import parse_query

        for text in ("R([A],[B]) ∧ R([B])", "R([A],[B]) ∧ R([B],c)"):
            with pytest.raises(ValueError, match="relation R different arities"):
                random_database(parse_query(text), 5)


class TestDomainWorkloads:
    def test_temporal_sessions(self):
        sessions = temporal_sessions(50, seed=0)
        assert len(sessions) == 50
        for interval, ident in sessions:
            assert interval.length >= 0

    def test_temporal_database(self):
        q = catalog.triangle_ij()
        db = temporal_database(q, 15, seed=1)
        assert db.size == 45

    def test_spatial_rectangles(self):
        rects = spatial_rectangles(30, seed=2)
        assert len(rects) == 30
        xs, ys, ids = zip(*rects)
        assert len(set(ids)) == 30

    def test_spatial_join_database(self):
        db = spatial_join_database(["P", "Q"], 10, seed=3)
        assert set(db.relation_names) == {"P", "Q"}
        assert db["P"].schema == ("X", "Y")


class TestHardInstances:
    def test_quadratic_instance_properties(self):
        db = quadratic_intermediate_triangle(10)
        q = catalog.triangle_ij()
        assert not naive_evaluate(q, db)
        # all B-intervals cross-intersect
        r_b = [t[1] for t in db["R"].tuples]
        s_b = [t[0] for t in db["S"].tuples]
        assert all(x.intersects(y) for x in r_b for y in s_b)

    def test_ej_hard_instance_shape(self):
        inst = ej_triangle_hard_instance(50, seed=0)
        assert set(inst) == {"R", "S", "T"}
        assert all(len(v) == 50 for v in inst.values())

    def test_embedding_theorem_66(self):
        """The Theorem 6.6 embedding: EJ 3-cycle truth transfers to the
        IJ triangle instance."""
        q = catalog.triangle_ij()
        cycle_atoms = ["R", "S", "T"]
        cycle_vertices = ["B", "C", "A"]
        # S1(X3, X1)=R(A?,B), S2(X1,X2)=S(B,C), S3(X2,X3)=T(C,A):
        # relation i has vertices (v_{i-1}, v_i) = (A,B), (B,C), (C,A)
        true_ej = [
            {(1, 2)},          # R: A=1, B=2
            {(2, 3)},          # S: B=2, C=3
            {(3, 1)},          # T: C=3, A=1
        ]
        db = embed_ej_into_ij(q, cycle_atoms, cycle_vertices, true_ej)
        assert naive_evaluate(q, db)
        false_ej = [{(1, 2)}, {(2, 3)}, {(3, 9)}]
        db2 = embed_ej_into_ij(q, cycle_atoms, cycle_vertices, false_ej)
        assert not naive_evaluate(q, db2)

    def test_embedding_validation(self):
        q = catalog.triangle_ij()
        with pytest.raises(ValueError):
            embed_ej_into_ij(q, ["R"], ["A", "B"], [set()])
