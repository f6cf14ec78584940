"""Cardinality statistics and disjunct-ordering tests."""

import random

from repro.core import evaluate_ij, naive_evaluate
from repro.engine import Database, Relation
from repro.engine.statistics import (
    estimate_evaluation_cost,
    estimate_join_cardinality,
    rank_order,
)
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce
from repro.workloads import random_database


class TestEstimates:
    def test_cross_product(self):
        q = parse_query("R(A) ∧ S(B)")
        db = Database(
            [
                Relation("R", ("A",), [(i,) for i in range(10)]),
                Relation("S", ("B",), [(i,) for i in range(5)]),
            ]
        )
        assert estimate_join_cardinality(q, db) == 50.0

    def test_key_join(self):
        q = parse_query("R(A,B) ∧ S(B,C)")
        db = Database(
            [
                Relation("R", ("A", "B"), [(i, i) for i in range(10)]),
                Relation("S", ("B", "C"), [(i, i) for i in range(10)]),
            ]
        )
        # 100 / max-distinct(B)=10 -> 10
        assert estimate_join_cardinality(q, db) == 10.0

    def test_empty_query(self):
        q = parse_query("R(A)")
        db = Database([Relation("R", ("A",), [])])
        assert estimate_join_cardinality(q, db) == 0.0
        assert estimate_evaluation_cost(q, db) >= 0.0

    def test_explain_estimates_no_rows_over_an_empty_relation(self):
        from repro.core import explain_sql

        db = Database(
            [
                Relation("R", ("A", "B"), []),
                Relation("S", ("B", "C"), [(1, 2), (2, 3)]),
            ]
        )
        text = "SELECT COUNT(*) FROM R r, S s WHERE r.B = s.B"
        assert "est. rows: 0.0" in explain_sql(text, db)

    def test_acyclic_cheaper_than_cyclic(self):
        acyclic = parse_query("R(A,B) ∧ S(B,C)")
        cyclic = parse_query("R(A,B) ∧ S(B,C) ∧ T(A,C)")
        rng = random.Random(0)
        rows = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(30)}
        db = Database(
            [
                Relation("R", ("A", "B"), rows),
                Relation("S", ("B", "C"), rows),
                Relation("T", ("A", "C"), rows),
            ]
        )
        assert estimate_evaluation_cost(
            acyclic, db
        ) < estimate_evaluation_cost(cyclic, db)


class TestRanking:
    def test_permutation_only(self):
        q = catalog.triangle_ij()
        db = random_database(q, 10, seed=0)
        result = forward_reduce(q, db)
        order = rank_order(result.ej_queries, result.database)
        assert sorted(order) == list(range(len(result.ej_queries)))

    def test_ordering_does_not_change_answers(self):
        rng = random.Random(1)
        q = catalog.triangle_ij()
        for trial in range(8):
            db = random_database(
                q, rng.randint(2, 12), seed=trial, domain=40, mean_length=8
            )
            assert evaluate_ij(q, db) == naive_evaluate(q, db), trial
