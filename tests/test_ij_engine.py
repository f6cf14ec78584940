"""End-to-end IJ engine tests: Boolean, counting, witnesses — all
cross-validated against the naive oracle (Appendix G machinery)."""

import random

import pytest

from repro.core import (
    IntersectionJoinEngine,
    count_ij,
    evaluate_ij,
    naive_count,
    naive_evaluate,
    naive_witnesses,
    witnesses_ij,
)
from repro.engine import Database, Relation
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce, shift_distinct_left


def verify_distinct_left(query, db) -> bool:
    """The G.1 postcondition: left endpoints of interval values are
    pairwise distinct across different atoms."""
    seen: dict[float, int] = {}
    for i, atom in enumerate(query.atoms):
        for idx, v in enumerate(atom.variables):
            if v.is_interval:
                for t in db[atom.relation].tuples:
                    if seen.setdefault(t[idx].left, i) != i:
                        return False
    return True


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


QUERIES = {
    "triangle": catalog.triangle_ij,
    "fig9c": catalog.figure9c_ij,
    "fig9d": catalog.figure9d_ij,
    "fig9e": catalog.figure9e_ij,
    "fig9f": catalog.figure9f_ij,
}


class TestBooleanEvaluation:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_matches_naive(self, name):
        rng = random.Random(hash(name) % 1000)
        q = QUERIES[name]()
        for trial in range(10):
            db = rand_db(rng, q, rng.randint(1, 6))
            assert evaluate_ij(q, db) == naive_evaluate(q, db), trial

    def test_true_and_false_cases_exercised(self):
        rng = random.Random(99)
        q = catalog.triangle_ij()
        outcomes = set()
        for trial in range(20):
            db = rand_db(rng, q, rng.randint(1, 5))
            outcomes.add(evaluate_ij(q, db))
        assert outcomes == {True, False}

    def test_engine_object(self):
        rng = random.Random(3)
        q = catalog.triangle_ij()
        engine = IntersectionJoinEngine(q)
        db = rand_db(rng, q, 5)
        assert engine.evaluate(db) == naive_evaluate(q, db)
        assert engine.count(db) == naive_count(q, db)
        reduction = engine.reduction(db)
        assert len(reduction.ej_queries) == 8


class TestShift:
    def test_shift_preserves_semantics(self):
        rng = random.Random(4)
        for name in ["triangle", "fig9c"]:
            q = QUERIES[name]()
            for trial in range(8):
                db = rand_db(rng, q, rng.randint(1, 6))
                shifted = shift_distinct_left(q, db)
                assert verify_distinct_left(q, shifted)
                assert naive_evaluate(q, shifted) == naive_evaluate(q, db)
                assert naive_count(q, shifted) == naive_count(q, db)

    def test_self_join_rejected(self):
        q = parse_query("R([A]) ∧ R([A])")
        db = Database([Relation("R", ("A",), [(Interval(0, 1),)])])
        with pytest.raises(ValueError):
            shift_distinct_left(q, db)

    @pytest.mark.parametrize("offset", [2.0**52, 2.0**53, -(2.0**52)])
    def test_shift_is_exact_at_large_magnitudes(self, offset):
        """Regression: the shift used to add a float epsilon
        (``gap / (2(n+1))``), which rounds away once endpoints pass
        2^52 — left endpoints then collide across atoms, the disjuncts
        stop being disjoint and this instance counted 9 (14 at 2^53)
        instead of 6.  Ranks are exact at any magnitude."""
        from repro.core import QuerySession

        q = parse_query("R([A]) ∧ S([A]) ∧ T([A])")
        db = Database(
            Relation(
                name,
                ("A",),
                [(Interval(offset + lo, offset + hi),) for lo, hi in rows],
            )
            for name, rows in (
                ("R", [(0, 2), (1, 3)]),
                ("S", [(0, 2), (2, 4)]),
                ("T", [(0, 2), (1, 1)]),
            )
        )
        shifted = shift_distinct_left(q, db)
        assert verify_distinct_left(q, shifted)
        assert naive_count(q, shifted) == naive_count(q, db) == 6
        assert count_ij(q, db) == 6
        assert QuerySession(db).count(q) == 6

        def canon(witnesses):
            return sorted(sorted(w.items()) for w in witnesses)

        assert canon(witnesses_ij(q, db)) == canon(naive_witnesses(q, db))
        assert canon(QuerySession(db).witnesses(q)) == canon(
            naive_witnesses(q, db)
        )


class TestCounting:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_count_matches_naive(self, name):
        rng = random.Random(hash(name) % 500 + 17)
        q = QUERIES[name]()
        for trial in range(6):
            db = rand_db(rng, q, rng.randint(1, 5))
            assert count_ij(q, db) == naive_count(q, db), trial

    def test_disjoint_rewriting_no_double_count(self):
        """Without the OT constraint the disjuncts overlap; with it the
        per-disjunct counts sum to the true count."""
        from repro.engine import count_ej

        rng = random.Random(21)
        q = catalog.triangle_ij()
        overlapping_seen = False
        for trial in range(12):
            db = rand_db(rng, q, rng.randint(2, 5))
            expected = naive_count(q, db)
            shifted = shift_distinct_left(q, db)
            disjoint = forward_reduce(
                q, shifted, disjoint=True, provenance=True
            )
            total = sum(
                count_ej(eq, disjoint.database, "generic")
                for eq in disjoint.ej_queries
            )
            assert total == expected, trial
            plain = forward_reduce(q, db, disjoint=False, provenance=True)
            plain_total = sum(
                count_ej(eq, plain.database, "generic")
                for eq in plain.ej_queries
            )
            assert plain_total >= expected
            overlapping_seen = overlapping_seen or plain_total > expected
        assert overlapping_seen  # the OT constraint actually matters

    def test_empty_count(self):
        q = catalog.triangle_ij()
        db = Database(
            [
                Relation("R", ("A", "B"), [(Interval(0, 1), Interval(0, 1))]),
                Relation("S", ("B", "C"), [(Interval(5, 6), Interval(0, 1))]),
                Relation("T", ("A", "C"), [(Interval(0, 1), Interval(0, 1))]),
            ]
        )
        assert count_ij(q, db) == naive_count(q, db) == 0


class TestWitnesses:
    @pytest.mark.parametrize("name", ["triangle", "fig9f"])
    def test_witness_sets_match_naive(self, name):
        rng = random.Random(hash(name) % 300 + 5)
        q = QUERIES[name]()
        for trial in range(6):
            db = rand_db(rng, q, rng.randint(1, 5))
            expected = {
                tuple(sorted((k, v) for k, v in w.items()))
                for w in naive_witnesses(q, db)
            }
            got_list = list(witnesses_ij(q, db))
            got = {
                tuple(sorted((k, v) for k, v in w.items()))
                for w in got_list
            }
            assert got == expected, trial
            assert len(got_list) == len(got)  # no duplicates

    def test_point_only_atoms_get_real_witness_tuples(self):
        """Point-only atoms have no provenance column; their witness
        tuple must be reconstructed from the assignment, not guessed."""
        q = parse_query("R([A],B) ∧ S(B)")
        db = Database(
            [
                Relation("R", ("A", "B"), [(Interval(0, 1), 2)]),
                Relation("S", ("B",), [(1,), (2,)]),
            ]
        )
        assert list(witnesses_ij(q, db)) == [
            {"R": (Interval(0, 1), 2), "S": (2,)}
        ]

    def test_point_only_atoms_enumerate_every_combination(self):
        q = parse_query("R([A],B) ∧ S(B,C)")
        db = Database(
            [
                Relation("R", ("A", "B"), [(Interval(0, 1), 1)]),
                Relation("S", ("B", "C"), [(1, 10), (1, 20), (2, 30)]),
            ]
        )
        got = {tuple(sorted(w.items())) for w in witnesses_ij(q, db)}
        expected = {
            tuple(sorted(w.items())) for w in naive_witnesses(q, db)
        }
        assert got == expected
        assert len(got) == naive_count(q, db) == 2

    def test_limit_zero_yields_nothing(self):
        q = catalog.triangle_ij()
        db = rand_db(random.Random(5), q, 5)
        assert list(witnesses_ij(q, db, limit=0)) == []

    def test_limit(self):
        rng = random.Random(8)
        q = catalog.triangle_ij()
        for trial in range(8):
            db = rand_db(rng, q, 4)
            total = naive_count(q, db)
            if total >= 2:
                limited = list(witnesses_ij(q, db, limit=1))
                assert len(limited) == 1
                return
        pytest.skip("no instance with >= 2 witnesses found")


class TestPointIntervalDegeneration:
    def test_equals_ej_semantics(self):
        """On point intervals, count_ij equals the EJ triangle count."""
        rng = random.Random(10)
        q = catalog.triangle_ij()
        for trial in range(8):
            pairs = {
                name: {
                    (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(6)
                }
                for name in "RST"
            }
            db = Database(
                [
                    Relation(
                        name,
                        sch,
                        {
                            (Interval.point(a), Interval.point(b))
                            for a, b in pairs[name]
                        },
                    )
                    for name, sch in [
                        ("R", ("A", "B")),
                        ("S", ("B", "C")),
                        ("T", ("A", "C")),
                    ]
                ]
            )
            expected = sum(
                1
                for a, b in pairs["R"]
                for b2, c in pairs["S"]
                if b == b2 and (a, c) in pairs["T"]
            )
            assert count_ij(q, db) == expected, trial


class TestNestedIntervals:
    def test_containment_chains(self):
        """Deeply nested intervals exercise long CP chains."""
        q = catalog.triangle_ij()
        nested = [Interval(i, 100 - i) for i in range(10)]
        db = Database(
            [
                Relation(
                    "R", ("A", "B"), [(nested[0], nested[3])]
                ),
                Relation(
                    "S", ("B", "C"), [(nested[7], nested[2])]
                ),
                Relation(
                    "T", ("A", "C"), [(nested[9], nested[5])]
                ),
            ]
        )
        assert evaluate_ij(q, db)
        assert count_ij(q, db) == 1

    def test_identical_intervals_everywhere(self):
        q = catalog.triangle_ij()
        x = Interval(0, 1)
        db = Database(
            [
                Relation("R", ("A", "B"), [(x, x)]),
                Relation("S", ("B", "C"), [(x, x)]),
                Relation("T", ("A", "C"), [(x, x)]),
            ]
        )
        assert evaluate_ij(q, db)
        assert count_ij(q, db) == 1


class TestOTUniqueness:
    """Lemma G.2, strengthened: each witness (id combination) appears in
    EXACTLY one disjunct's assignment set — not merely equal totals."""

    def test_each_witness_once_across_disjuncts(self):
        import random as _random

        from repro.engine import evaluate_ej_full
        from repro.reduction import forward_reduce, shift_distinct_left

        rng = _random.Random(77)
        q = catalog.triangle_ij()
        checked = 0
        for trial in range(10):
            db = rand_db(rng, q, rng.randint(2, 5))
            shifted = shift_distinct_left(q, db)
            result = forward_reduce(
                q, shifted, disjoint=True, provenance=True
            )
            id_cols = [f"__id_{a.label}" for a in q.atoms]
            seen: dict[tuple, str] = {}
            for encoded in result.encoded_queries:
                assignments = evaluate_ej_full(
                    encoded.query, result.database, output=id_cols
                )
                for row in assignments.tuples:
                    assert row not in seen, (
                        trial,
                        row,
                        seen[row],
                        encoded.query.name,
                    )
                    seen[row] = encoded.query.name
                    checked += 1
        assert checked > 0
