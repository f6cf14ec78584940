"""Tests for the factored (Id-decomposition) encoding (Section 1.1) —
the ablation kept beside ``benchmarks/bench_encoding_ablation.py``,
loaded from there by path: it is built on the production reducer's
trees and codebook, so it is held to the production API here rather
than only in the ``bench-smoke`` job."""

import importlib
import random
import sys
from pathlib import Path

from repro.core import naive_count, naive_evaluate
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce

BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")
sys.path.insert(0, BENCHMARKS)
try:
    factored_encoding = importlib.import_module("factored_encoding")
finally:
    sys.path.remove(BENCHMARKS)
count_ij_factored = factored_encoding.count_ij_factored
evaluate_ij_factored = factored_encoding.evaluate_ij_factored
forward_reduce_factored = factored_encoding.forward_reduce_factored


def rand_interval(rng, dom=10, maxlen=4):
    lo = rng.randint(0, dom)
    return Interval(lo, lo + rng.randint(0, maxlen))


def rand_db(rng, query, n, dom=10, maxlen=4):
    db = Database()
    for atom in query.atoms:
        rows = set()
        for _ in range(n):
            row = []
            for v in atom.variables:
                if v.is_interval:
                    row.append(rand_interval(rng, dom, maxlen))
                else:
                    row.append(rng.randint(0, 4))
            rows.add(tuple(row))
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


class TestStructure:
    def test_factor_relations_per_atom_and_variable(self):
        rng = random.Random(0)
        q = catalog.triangle_ij()
        db = rand_db(rng, q, 5)
        result = forward_reduce_factored(q, db)
        names = set(result.database.relation_names)
        # per atom: base + per variable x per position (2 each)
        for label in ["R", "S", "T"]:
            assert f"{label}:base" in names
        assert "R:A1" in names and "R:A2" in names
        assert "R:B1" in names and "R:B2" in names
        # 3 bases + 3 atoms x 2 vars x 2 positions = 15 relations
        assert len(names) == 15

    def test_disjunct_atom_shape(self):
        rng = random.Random(1)
        q = catalog.triangle_ij()
        db = rand_db(rng, q, 4)
        result = forward_reduce_factored(q, db)
        assert len(result.ej_queries) == 8
        eq = result.ej_queries[0]
        # per original atom: 1 base + 2 factors = 9 atoms
        assert len(eq.atoms) == 9
        assert all(eq.is_ej for eq in result.ej_queries)

    def test_space_advantage_over_default(self):
        """The paper's point: factored total size beats the default
        encoding's per-atom cross products."""
        rng = random.Random(2)
        q = catalog.triangle_ij()
        db = rand_db(rng, q, 64, dom=600, maxlen=80)
        default = forward_reduce(q, db)
        factored = forward_reduce_factored(q, db)
        assert factored.database.size < default.database.size


class TestEquivalence:
    QUERIES = [
        catalog.triangle_ij,
        catalog.figure9c_ij,
        catalog.figure9f_ij,
        lambda: parse_query("Qm := R([A], K) ∧ S([A], K)"),
    ]

    def test_boolean_matches_naive(self):
        rng = random.Random(3)
        for factory in self.QUERIES:
            q = factory()
            for trial in range(8):
                db = rand_db(rng, q, rng.randint(1, 6))
                assert evaluate_ij_factored(q, db) == naive_evaluate(q, db), (
                    q.name,
                    trial,
                )

    def test_count_matches_naive(self):
        rng = random.Random(4)
        for factory in [catalog.triangle_ij, catalog.figure9f_ij]:
            q = factory()
            for trial in range(6):
                db = rand_db(rng, q, rng.randint(1, 5))
                assert count_ij_factored(q, db) == naive_count(q, db), (
                    q.name,
                    trial,
                )

    def test_agrees_with_default_encoding(self):
        rng = random.Random(5)
        q = catalog.triangle_ij()
        from repro.core import evaluate_ij

        for trial in range(10):
            db = rand_db(rng, q, rng.randint(1, 6))
            assert evaluate_ij_factored(q, db) == evaluate_ij(q, db), trial
