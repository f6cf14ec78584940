"""One-step reduction tests (Lemma 4.11, Example 4.12)."""

import random

from oracles.one_step import iterate_one_step, one_step_forward
from repro.core import naive_evaluate
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import catalog, parse_query


def rand_interval(rng, dom=10, maxlen=4):
    lo = rng.randint(0, dom)
    return Interval(lo, lo + rng.randint(0, maxlen))


def rand_db(rng, query, n):
    db = Database()
    for atom in query.atoms:
        rows = {
            tuple(rand_interval(rng) for _ in atom.variables)
            for _ in range(n)
        }
        db.add(Relation(atom.relation, atom.variable_names, rows))
    return db


class TestExample412Structure:
    """Example 4.12: resolving [A] in the triangle gives two disjuncts
    with relations R~1(A1,[B]), T~1(A1,A2,[C]), R~2(A1,A2,[B]),
    T~2(A1,[C])."""

    def setup_method(self):
        rng = random.Random(0)
        self.q = catalog.triangle_ij()
        self.db = rand_db(rng, self.q, 5)
        self.step = one_step_forward(self.q, self.db, "A")

    def test_two_disjuncts(self):
        assert len(self.step.queries) == 2
        assert self.step.permutations == [("R", "T"), ("T", "R")]

    def test_disjuncts_are_eij(self):
        for disjunct in self.step.queries:
            names = {v.name for v in disjunct.variables}
            assert "A1" in names
            interval_names = {
                v.name for v in disjunct.interval_variables
            }
            assert interval_names == {"B", "C"}

    def test_schemas(self):
        q1 = self.step.queries[0]  # sigma = (R, T)
        r_atom = q1.atom("R")
        t_atom = q1.atom("T")
        assert r_atom.variable_names == ("A1", "B")
        assert t_atom.variable_names == ("A1", "A2", "C")

    def test_s_untouched(self):
        q1 = self.step.queries[0]
        assert q1.atom("S").relation == "S"
        assert self.step.database["S"].tuples == self.db["S"].tuples

    def test_variant_relations_exist(self):
        names = set(self.step.database.relation_names)
        assert {"R@A1", "R@A2", "T@A1", "T@A2", "S"} == names


class TestSameCellsAsForward:
    def test_one_variable_step_is_the_forward_reduction(self):
        """With one interval variable, the one step *is* Algorithm 1:
        the same relations as ``forward_reduce``'s, cell for cell (part
        ids, point values verbatim)."""
        from repro.reduction import forward_reduce

        rng = random.Random(4)
        q = parse_query("R([A], x) ∧ S([A]) ∧ T([A], y)")
        db = Database()
        for atom in q.atoms:
            rows = {
                tuple(
                    rand_interval(rng) if v.is_interval else rng.randrange(3)
                    for v in atom.variables
                )
                for _ in range(8)
            }
            db.add(Relation(atom.relation, atom.variable_names, rows))
        step = one_step_forward(q, db, "A")
        reduced = forward_reduce(q, db).database
        assert len(step.database.relation_names) == len(reduced.relation_names) == 9
        for name in step.database.relation_names:
            twin = reduced[name.replace("@", "~")]
            assert step.database[name].schema == twin.schema
            assert step.database[name].tuples == twin.tuples, name


class TestLemma411:
    """One-step equivalence: Q(D) iff some disjunct of Q̃_[X](D̃_[X])."""

    def test_random_instances(self):
        rng = random.Random(1)
        for factory in [catalog.triangle_ij, catalog.figure9f_ij]:
            q = factory()
            for trial in range(8):
                db = rand_db(rng, q, rng.randint(1, 6))
                for x in [v.name for v in q.interval_variables]:
                    step = one_step_forward(q, db, x)
                    expected = naive_evaluate(q, db)
                    got = any(
                        naive_evaluate(disjunct, step.database)
                        for disjunct in step.queries
                    )
                    assert got == expected, (q.name, x, trial)

    def test_errors(self):
        q = parse_query("R([A], K)")
        db = Database(
            [Relation("R", ("A", "K"), [(Interval(0, 1), 3)])]
        )
        import pytest

        with pytest.raises(ValueError):
            one_step_forward(q, db, "Z")
        with pytest.raises(ValueError):
            one_step_forward(q, db, "K")


class TestIteratedAlgorithm1:
    """Theorem 4.13 via the literal iterative algorithm, cross-checked
    against the shared-variant implementation."""

    def test_matches_full_reduction(self):
        from repro.engine import evaluate_ej
        from repro.reduction import forward_reduce

        rng = random.Random(2)
        q = catalog.figure9f_ij()
        for trial in range(6):
            db = rand_db(rng, q, rng.randint(1, 5))
            expected = naive_evaluate(q, db)
            literal = iterate_one_step(q, db)
            got_literal = any(
                evaluate_ej(disjunct, d, "generic")
                for disjunct, d in literal
            )
            shared = forward_reduce(q, db)
            got_shared = any(
                evaluate_ej(eq, shared.database, "generic")
                for eq in shared.ej_queries
            )
            assert got_literal == got_shared == expected, trial
            assert len(literal) == len(shared.ej_queries)

    def test_triangle_disjunct_count(self):
        rng = random.Random(3)
        q = catalog.triangle_ij()
        db = rand_db(rng, q, 3)
        literal = iterate_one_step(q, db)
        assert len(literal) == 8
