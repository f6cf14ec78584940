"""Tests for database I/O, validation, and the adaptive planner."""

import random

from repro.core import QuerySession, explain, naive_evaluate
from repro.engine import Database, Relation
from repro.engine.io import (
    load_database_json,
    load_relation_csv,
    save_database_json,
    save_relation_csv,
    validate_database,
)
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.sql import DisjunctPlan
from repro.workloads import random_database


class TestCsv:
    def test_roundtrip(self, tmp_path):
        relation = Relation(
            "R",
            ("A", "K"),
            [
                (Interval(1.5, 4.0), 7),
                (Interval(0.0, 0.0), 9),
            ],
        )
        path = tmp_path / "r.csv"
        save_relation_csv(relation, path)
        loaded = load_relation_csv(path, "R", interval_columns=["A"])
        assert loaded.schema == ("A", "K")
        assert loaded.tuples == relation.tuples

    def test_bare_number_becomes_point_interval(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A\n5\n")
        loaded = load_relation_csv(path, "R", interval_columns=["A"])
        assert loaded.tuples == {(Interval.point(5.0),)}

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n1,2\n3\n")
        import pytest

        with pytest.raises(ValueError, match="expected 2 fields"):
            load_relation_csv(path, "R")

    def test_string_values(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("A,TAG\n1..2,hello\n")
        loaded = load_relation_csv(path, "R", interval_columns=["A"])
        assert (Interval(1, 2), "hello") in loaded


class TestJson:
    def test_roundtrip_with_query(self, tmp_path):
        q = catalog.triangle_ij()
        db = random_database(q, 6, seed=0)
        path = tmp_path / "db.json"
        save_database_json(db, path)
        loaded = load_database_json(path, q)
        for name in db.relation_names:
            assert loaded[name].tuples == db[name].tuples

    def test_roundtrip_without_query_guesses_pairs(self, tmp_path):
        db = Database(
            [Relation("R", ("A", "K"), [(Interval(1, 2), "x")])]
        )
        path = tmp_path / "db.json"
        save_database_json(db, path)
        loaded = load_database_json(path)
        assert (Interval(1, 2), "x") in loaded["R"]

    def test_bad_interval_cell(self, tmp_path):
        import json

        import pytest

        path = tmp_path / "db.json"
        path.write_text(
            json.dumps(
                {"R": {"schema": ["A"], "tuples": [["oops"]]}}
            )
        )
        q = parse_query("R([A])")
        with pytest.raises(ValueError, match="expected"):
            load_database_json(path, q)

    def test_semantics_preserved(self, tmp_path):
        q = catalog.triangle_ij()
        db = random_database(q, 8, seed=3)
        path = tmp_path / "db.json"
        save_database_json(db, path)
        loaded = load_database_json(path, q)
        assert naive_evaluate(q, db) == naive_evaluate(q, loaded)


class TestValidation:
    def test_valid(self):
        q = catalog.triangle_ij()
        db = random_database(q, 5, seed=0)
        assert validate_database(q, db) == []

    def test_missing_relation(self):
        q = catalog.triangle_ij()
        db = Database([Relation("R", ("A", "B"), [])])
        problems = validate_database(q, db)
        assert any("missing relation 'S'" in p for p in problems)

    def test_arity_mismatch(self):
        q = parse_query("R([A],[B])")
        db = Database([Relation("R", ("A",), [(Interval(0, 1),)])])
        problems = validate_database(q, db)
        assert any("arity" in p for p in problems)

    def test_type_mismatches(self):
        q = parse_query("R([A], K)")
        db = Database(
            [Relation("R", ("A", "K"), [(5, Interval(0, 1))])]
        )
        problems = validate_database(q, db)
        assert any("non-interval value" in p for p in problems)
        assert any("interval value" in p for p in problems)


class TestPlanner:
    """The one planner (``repro.sql.cost.plan_disjunct``), reached from
    a Query AST through ``QuerySession.plan``."""

    def test_tiny_uses_naive(self):
        q = catalog.triangle_ij()
        db = random_database(q, 3, seed=0)
        plan = QuerySession(db).plan(q)
        assert plan.strategy == "naive"

    def test_binary_single_var_uses_sweep(self):
        q = parse_query("R([T], [X]) ∧ S([T], [Y])")
        db = random_database(q, 500, seed=1)
        plan = QuerySession(db).plan(q)
        assert plan.strategy == "sweep"

    def test_general_uses_reduction(self):
        q = catalog.triangle_ij()
        db = random_database(q, 500, seed=2)
        plan = QuerySession(db).plan(q)
        assert plan.strategy == "reduction"

    def test_two_shared_vars_not_sweep(self):
        q = parse_query("R([A],[B]) ∧ S([A],[B])")
        db = random_database(q, 500, seed=3)
        assert QuerySession(db).plan(q).strategy == "reduction"

    def test_execute_agrees_with_naive(self):
        rng = random.Random(4)
        shapes = [
            catalog.triangle_ij(),
            parse_query("R([T],[X]) ∧ S([T],[Y])"),
            parse_query("R([A]) ∧ S([A]) ∧ T([A])"),
        ]
        for q in shapes:
            for trial in range(6):
                db = random_database(
                    q, rng.randint(2, 30), seed=trial, domain=60,
                    mean_length=10,
                )
                session = QuerySession(db, naive_budget=50)
                assert isinstance(session.plan(q), DisjunctPlan)
                assert session.evaluate(q) == naive_evaluate(q, db), (
                    q.name, trial,
                )

    def test_explain_text(self):
        q = catalog.triangle_ij()
        db = random_database(q, 10, seed=0)
        text = explain(q, db)
        assert "chosen: naive" in text and "input size: 30" in text
        assert "lowered: R([A], [B]) ∧ S([B], [C]) ∧ T([A], [C])" in text
