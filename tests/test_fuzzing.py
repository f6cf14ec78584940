"""Differential fuzzing: the reduction engine vs the naive oracle on a
corpus of random queries and random databases.

This is the strongest correctness evidence in the suite: it exercises
arbitrary query shapes (paths, stars, cliques, high-arity atoms,
mixed point/interval schemas, variables repeated across many atoms)
rather than just the paper's named queries.
"""

import random

import pytest

from repro.core import count_ij, evaluate_ij, naive_count, naive_evaluate
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import Query
from repro.workloads.query_generator import query_corpus, random_ij_query


def random_db(rng: random.Random, query: Query, n: int) -> Database:
    db = Database()
    for atom in query.atoms:
        rows = set()
        for _ in range(n):
            row = []
            for v in atom.variables:
                if v.is_interval:
                    lo = rng.randint(0, 8)
                    row.append(Interval(lo, lo + rng.randint(0, 4)))
                else:
                    row.append(rng.randint(0, 4))
            rows.add(tuple(row))
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


def reduction_is_feasible(query: Query) -> bool:
    """Skip queries whose disjunction is enormous (> 200 disjuncts)."""
    total = 1
    for v in query.interval_variables:
        k = len(query.atoms_containing(v.name))
        factorial = 1
        for i in range(2, k + 1):
            factorial *= i
        total *= factorial
        if total > 200:
            return False
    return True


class TestBooleanFuzzing:
    def test_corpus_agreement(self):
        rng = random.Random(100)
        corpus = [
            q for q in query_corpus(seed=1, count=40)
            if reduction_is_feasible(q)
        ]
        assert len(corpus) >= 25
        checked = 0
        for query in corpus:
            for _ in range(3):
                db = random_db(rng, query, rng.randint(1, 5))
                assert evaluate_ij(query, db) == naive_evaluate(query, db), (
                    query,
                    sorted((r.name, sorted(r.tuples, key=repr)) for r in db),
                )
                checked += 1
        assert checked >= 75

    def test_pure_interval_corpus(self):
        rng = random.Random(200)
        corpus = [
            q
            for q in query_corpus(seed=2, count=25, point_probability=0.0)
            if reduction_is_feasible(q)
        ]
        for query in corpus:
            db = random_db(rng, query, rng.randint(1, 5))
            assert evaluate_ij(query, db) == naive_evaluate(query, db), query


class TestCountFuzzing:
    def test_self_join_free_counts(self):
        rng = random.Random(300)
        checked = 0
        for i in range(40):
            query = random_ij_query(
                rng, max_atoms=3, max_variables=3, point_probability=0.2,
                name=f"Qcount{i}",
            )
            if not reduction_is_feasible(query):
                continue
            if not query.is_self_join_free:
                continue
            db = random_db(rng, query, rng.randint(1, 4))
            assert count_ij(query, db) == naive_count(query, db), query
            checked += 1
        assert checked >= 20


class TestGeneratorProperties:
    def test_connectivity(self):
        import networkx as nx

        rng = random.Random(0)
        for i in range(30):
            q = random_ij_query(rng, name=f"Qc{i}")
            primal = q.hypergraph().primal_graph()
            if primal.number_of_nodes() > 1:
                # atoms chain through shared variables
                incidence = q.hypergraph().incidence_graph()
                assert nx.is_connected(incidence), q

    def test_reproducible(self):
        a = [repr(q) for q in query_corpus(seed=9, count=10)]
        b = [repr(q) for q in query_corpus(seed=9, count=10)]
        assert a == b

    def test_point_probability_extremes(self):
        rng = random.Random(1)
        all_points = random_ij_query(rng, point_probability=1.0)
        assert all(not v.is_interval for v in all_points.variables)
        rng = random.Random(1)
        all_intervals = random_ij_query(rng, point_probability=0.0)
        assert all(v.is_interval for v in all_intervals.variables)


@pytest.mark.slow
class TestDeepFuzzing:
    def test_many_instances(self):
        rng = random.Random(500)
        corpus = [
            q for q in query_corpus(seed=4, count=60)
            if reduction_is_feasible(q)
        ]
        for query in corpus:
            for _ in range(4):
                db = random_db(rng, query, rng.randint(1, 6))
                assert evaluate_ij(query, db) == naive_evaluate(
                    query, db
                ), query
