"""Backward reduction tests (Section 5, Appendix D, Claim D.3), and the
backward differential: the EJ engine on a random instance of every
disjunct against the IJ session on its backward image.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import os
import random
from math import ceil, log2

import pytest

from repro.core import QuerySession
from repro.core.baselines import naive_evaluate
from repro.engine import Database, Relation, evaluate_ej
from repro.hypergraph import tau_with_positions
from repro.hypergraph.transform import part_vertex
from repro.intervals import Interval, perfect_tree_segment
from repro.intervals.bitstring import node_id
from repro.queries import Atom, Query, catalog, parse_query, pvar
from repro.reduction import (
    backward_database,
    backward_reduce,
    bitstring_encode_database,
)

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


class TestBitstringEncoding:
    def test_fixed_width(self):
        db = Database(
            [
                Relation("R", ("A", "B"), [(1, 2), (3, 4)]),
                Relation("S", ("B",), [(2,), (9,)]),
            ]
        )
        encoded = bitstring_encode_database(db)
        widths = {
            x.bit_length() - 1 for rel in encoded for t in rel.tuples for x in t
        }
        assert widths == {3}  # five values: node ids of depth 3

    def test_preserves_equalities(self):
        db = Database(
            [
                Relation("R", ("A",), [(7,), (8,)]),
                Relation("S", ("A",), [(7,), (9,)]),
            ]
        )
        encoded = bitstring_encode_database(db)
        r_vals = {t[0] for t in encoded["R"].tuples}
        s_vals = {t[0] for t in encoded["S"].tuples}
        assert len(r_vals & s_vals) == 1

    def test_width_too_small(self):
        db = Database([Relation("R", ("A",), [(i,) for i in range(5)])])
        with pytest.raises(ValueError):
            bitstring_encode_database(db, width=2)


class TestFigure7:
    def test_segments_match_figure(self):
        """Figure 7 (n=2, b=2): root [16,31], '0' -> [16,23],
        '00' -> [16,19], '0010' -> [18,18], '11' -> [28,31]."""
        cases = {
            "": (16, 31),
            "0": (16, 23),
            "00": (16, 19),
            "0010": (18, 18),
            "11": (28, 31),
            "101": (26, 27),
        }
        for bits, (lo, hi) in cases.items():
            seg = perfect_tree_segment(node_id(bits), 4)
            assert (seg.left, seg.right) == (lo, hi), bits

    def test_backward_reduce_builds_the_string_construction(self):
        """For any EJ database, the intervals are Theorem 5.2's proof
        read on strings: values ranked in ``repr`` order to ``b``-bit
        strings, an atom's parts concatenated, ``seg(u)`` from
        ``'1' ∘ u ∘ '0'^ℓ`` and ``'1' ∘ u ∘ '1'^ℓ``."""
        rng = random.Random(3)
        q = catalog.triangle_ij()
        positions = {
            "A": {"R": 2, "T": 1},
            "B": {"R": 1, "S": 2},
            "C": {"S": 2, "T": 1},
        }
        schemas = {"R": ("A1", "A2", "B1"), "S": ("B1", "B2", "C1", "C2"), "T": ("A1", "C1")}
        ej_db = Database(
            Relation(name, cols, {tuple(rng.randrange(9) for _ in cols) for _ in range(12)})
            for name, cols in schemas.items()
        )
        values = sorted({x for r in ej_db for t in r.tuples for x in t}, key=repr)
        b = ceil(log2(len(values)))
        text = {x: format(i, f"0{b}b") for i, x in enumerate(values)}
        depth = 3 * b

        def seg(u):
            pad = depth - len(u)
            return Interval(int("1" + u + "0" * pad, 2), int("1" + u + "1" * pad, 2))

        ij_db = backward_reduce(q, positions, ej_db)
        for atom in q.atoms:
            expected = set()
            for t in ej_db[atom.relation].tuples:
                parts = iter(text[x] for x in t)
                expected.add(
                    tuple(
                        seg("".join(next(parts) for _ in range(positions[v.name][atom.label])))
                        for v in atom.variables
                    )
                )
            assert ij_db[atom.relation].tuples == expected, atom.label


class TestClaimD3:
    """Q(D) ⟺ Q̃(D̃) for arbitrary EJ databases (randomised)."""

    def _triangle_positions(self):
        # the disjunct Q̃3 of Example 5.1
        return {
            "A": {"R": 2, "T": 1},
            "B": {"R": 1, "S": 2},
            "C": {"S": 2, "T": 1},
        }

    def test_triangle_q3_roundtrip(self):
        rng = random.Random(0)
        q = catalog.triangle_ij()
        positions = self._triangle_positions()
        for trial in range(25):
            n, dom = rng.randint(1, 6), rng.randint(1, 4)
            d_r = {
                tuple(rng.randrange(dom) for _ in range(3)) for _ in range(n)
            }
            d_s = {
                tuple(rng.randrange(dom) for _ in range(4)) for _ in range(n)
            }
            d_t = {
                tuple(rng.randrange(dom) for _ in range(2)) for _ in range(n)
            }
            ej_db = Database(
                [
                    Relation("R", ("A1", "A2", "B1"), d_r),
                    Relation("S", ("B1", "B2", "C1", "C2"), d_s),
                    Relation("T", ("A1", "C1"), d_t),
                ]
            )
            expected = any(
                b1 == b1s and a1 == a1t and c1 == c1t
                for (a1, a2, b1) in d_r
                for (b1s, b2, c1, c2) in d_s
                for (a1t, c1t) in d_t
            )
            ij_db = backward_reduce(q, positions, ej_db)
            assert naive_evaluate(q, ij_db) == expected, trial
            assert ij_db.size == ej_db.size  # |D| = O(|D̃|), here equal

    def test_all_eight_triangle_disjuncts(self):
        """The backward reduction works for every disjunct in τ(H)."""
        rng = random.Random(1)
        q = catalog.triangle_ij()
        from repro.hypergraph import tau_with_positions

        combos = tau_with_positions(
            q.hypergraph(), q.interval_variable_names()
        )
        assert len(combos) == 8
        for _, posmap in combos:
            n = 4
            schemas = {}
            for atom in q.atoms:
                cols = []
                for v in atom.variables:
                    parts = posmap[v.name][atom.label]
                    cols.extend(f"{v.name}{j}" for j in range(1, parts + 1))
                schemas[atom.label] = tuple(cols)
            ej_db = Database(
                [
                    Relation(
                        label,
                        cols,
                        {
                            tuple(rng.randrange(3) for _ in cols)
                            for _ in range(n)
                        },
                    )
                    for label, cols in schemas.items()
                ]
            )
            # brute-force the EJ query directly
            rels = {label: list(ej_db[label].tuples) for label in schemas}
            expected = False
            for tr in rels["R"]:
                for ts in rels["S"]:
                    for tt in rels["T"]:
                        rows = {"R": tr, "S": ts, "T": tt}
                        bindings: dict[str, int] = {}
                        ok = True
                        for label, cols in schemas.items():
                            for col, val in zip(cols, rows[label]):
                                if bindings.setdefault(col, val) != val:
                                    ok = False
                                    break
                            if not ok:
                                break
                        expected = expected or ok
            ij_db = backward_reduce(q, posmap, ej_db)
            assert naive_evaluate(q, ij_db) == expected

    def test_fig9f_roundtrip(self):
        rng = random.Random(2)
        q = catalog.figure9f_ij()
        positions = {
            "A": {"R": 1, "S": 2},
            "B": {"R": 2, "S": 1},
            "C": {"R": 1},
        }
        for trial in range(15):
            n = rng.randint(1, 6)
            d_r = {
                tuple(rng.randrange(3) for _ in range(4)) for _ in range(n)
            }  # A1, B1, B2, C1
            d_s = {
                tuple(rng.randrange(3) for _ in range(3)) for _ in range(n)
            }  # A1, A2, B1
            ej_db = Database(
                [
                    Relation("R", ("A1", "B1", "B2", "C1"), d_r),
                    Relation("S", ("A1", "A2", "B1"), d_s),
                ]
            )
            expected = any(
                a1 == a1s and b1 == b1s
                for (a1, b1, b2, c1) in d_r
                for (a1s, a2, b1s) in d_s
            )
            ij_db = backward_reduce(q, positions, ej_db)
            assert naive_evaluate(q, ij_db) == expected, trial


class TestValidation:
    def test_self_join_rejected(self):
        q = parse_query("R([A]) ∧ R([A])")
        db = Database([Relation("R", ("A1",), [(node_id("0"),)])])
        with pytest.raises(ValueError):
            backward_database(q, {"A": {"R": 1, "R#2": 2}}, db)

    def test_arity_mismatch_rejected(self):
        q = catalog.figure9f_ij()
        positions = {
            "A": {"R": 1, "S": 2},
            "B": {"R": 2, "S": 1},
            "C": {"R": 1},
        }
        zero, one = node_id("0"), node_id("1")
        db = Database(
            [
                Relation("R", ("A1", "B1"), [(zero, one)]),
                Relation("S", ("A1", "A2", "B1"), [(zero, one, zero)]),
            ]
        )
        with pytest.raises(ValueError):
            backward_database(q, positions, db)

    def test_mixed_widths_rejected(self):
        q = catalog.figure9f_ij()
        positions = {
            "A": {"R": 1, "S": 2},
            "B": {"R": 2, "S": 1},
            "C": {"R": 1},
        }
        zero, one, one_zero = node_id("0"), node_id("1"), node_id("10")
        db = Database(
            [
                Relation("R", ("A1", "B1", "B2", "C1"), [(zero, one, one_zero, one)]),
                Relation("S", ("A1", "A2", "B1"), [(zero, one, zero)]),
            ]
        )
        with pytest.raises(ValueError):
            backward_database(q, positions, db)


# ----------------------------------------------------------------------
# the backward differential: EJ engine ≡ IJ session on the backward image
# ----------------------------------------------------------------------

DIFFERENTIAL_QUERIES = {
    "triangle": catalog.triangle_ij,
    "cycle4": lambda: catalog.cycle_ij(4),
    "path3": lambda: catalog.path_ij(3),
    "star3": lambda: catalog.star_ij(3),
    "fig9e": catalog.figure9e_ij,
    "fig9f": catalog.figure9f_ij,
}


def ej_disjunct(q: Query, positions) -> Query:
    """``Q̃`` for one position map: each ``[X]`` at position ``i`` of an
    atom becomes the point variables ``X1..Xi`` in place."""
    atoms = []
    for atom in q.atoms:
        variables = []
        for v in atom.variables:
            if v.is_interval:
                i = positions[v.name][atom.label]
                variables.extend(pvar(part_vertex(v.name, j)) for j in range(1, i + 1))
            else:
                variables.append(v)
        atoms.append(Atom(atom.label, atom.relation, tuple(variables)))
    return Query(tuple(atoms), name=f"{q.name}~")


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_QUERIES))
def test_backward_differential(name):
    """Per disjunct of ``τ(H)``, a random EJ instance ``Ĩ`` of
    ``n ∈ {40, 150}`` tuples per relation: ``Q̃(Ĩ)`` by the EJ engine,
    with no interval anywhere, must be ``Q(D)`` by the session's forward
    reduction on ``D = backward(Ĩ)``, and ``|D| = |Ĩ|``.  Domains cycle
    dense / medium / sparse so that both answers occur for every query."""
    q = DIFFERENTIAL_QUERIES[name]()
    rng = random.Random(f"{FUZZ_SEED}:{name}")
    answers = []
    disjuncts = tau_with_positions(q.hypergraph(), q.interval_variable_names())
    for _, positions in disjuncts:
        ej_query = ej_disjunct(q, positions)
        n = (40, 150)[len(answers) % 2]
        domain = (max(2, n // 8), n, n * n)[len(answers) % 3]
        ej_db = Database(
            Relation(
                atom.relation,
                atom.variable_names,
                {
                    tuple(rng.randrange(domain) for _ in atom.variables)
                    for _ in range(n)
                },
            )
            for atom in ej_query.atoms
        )
        ij_db = backward_reduce(q, positions, ej_db)
        assert ij_db.size == ej_db.size
        expected = evaluate_ej(ej_query, ej_db)
        got = QuerySession(ij_db).evaluate(q, strategy="reduction")
        assert got == expected, (name, positions, n, domain)
        answers.append(expected)
    assert set(answers) == {True, False}, name
