"""Tests for database I/O, validation, and the adaptive planner."""

import json
import math
import random

import pytest

from repro.core import QuerySession, explain, naive_count, naive_evaluate
from repro.engine import Database, Relation
from repro.engine.io import (
    encode_database,
    load_database_json,
    save_database_json,
    validate_database,
)
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.sql import DisjunctPlan, cost
from repro.workloads import random_database


class TestJson:
    """Database files are the value codec written to a file."""

    def test_roundtrip_with_query(self, tmp_path):
        q = catalog.triangle_ij()
        db = random_database(q, 6, seed=0)
        path = tmp_path / "db.json"
        save_database_json(db, path)
        loaded = load_database_json(path, q)
        for name in db.relation_names:
            assert loaded[name].tuples == db[name].tuples

    def test_roundtrip_without_query_keeps_every_value(self, tmp_path):
        db = Database(
            [Relation("R", ("A", "K"), [(Interval(1, 2), "x"), (Interval(3, 3), (1, 2))])]
        )
        path = tmp_path / "db.json"
        save_database_json(db, path)
        loaded = load_database_json(path)
        assert loaded["R"].tuples == db["R"].tuples
        written = json.loads(path.read_text())["R"]["tuples"]
        assert written == sorted(encode_database(db)["R"]["tuples"], key=json.dumps)

    def test_bad_interval_cell(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(
            json.dumps(
                {"R": {"schema": ["A"], "tuples": [["oops"]]}}
            )
        )
        q = parse_query("R([A])")
        with pytest.raises(ValueError, match="non-interval value 'oops'"):
            load_database_json(path, q)
        assert ("oops",) in load_database_json(path)["R"]

    def test_nan_endpoint_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        # ``json`` reads the non-standard ``NaN`` literal as a float
        path.write_text(
            '{"R": {"schema": ["A"], "tuples": [[{"interval": [NaN, 1.0]}]]}}'
        )
        with pytest.raises(ValueError, match="NaN"):
            load_database_json(path, parse_query("R([A])"))
        with pytest.raises(ValueError, match="NaN"):
            save_database_json(
                Database([Relation("R", ("K",), [(math.nan,)])]), tmp_path / "nan.json"
            )

    def test_infinite_endpoints_agree_with_naive(self, tmp_path):
        q = catalog.triangle_ij()
        db = random_database(q, 6, seed=5, domain=30.0)
        db["S"].tuples.add((Interval(-math.inf, math.inf), Interval(-math.inf, 4.0)))
        path = tmp_path / "db.json"
        save_database_json(db, path)
        loaded = load_database_json(path, q)
        assert loaded["S"].tuples == db["S"].tuples
        session = QuerySession(loaded)
        assert session.evaluate(q) == naive_evaluate(q, db)
        assert session.count(q) == naive_count(q, db)

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

    def test_execute_agrees_with_naive(self, monkeypatch):
        rng = random.Random(4)
        shapes = [
            catalog.triangle_ij(),
            parse_query("R([T],[X]) ∧ S([T],[Y])"),
            parse_query("R([A]) ∧ S([A]) ∧ T([A])"),
        ]
        monkeypatch.setattr(cost, "DEFAULT_NAIVE_BUDGET", 50)
        for q in shapes:
            for trial in range(6):
                db = random_database(
                    q, rng.randint(2, 30), seed=trial, domain=60,
                    mean_length=10,
                )
                session = QuerySession(db)
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
