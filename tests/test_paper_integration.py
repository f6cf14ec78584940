"""Integration tests binding the paper's storyline end to end.

Each test corresponds to a claim spanning multiple subsystems:
reduction + engine + widths + acyclicity together.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import ej as oracle

from repro.core import analyze_query, count_ij, evaluate_ij, naive_count, naive_evaluate
from repro.engine import Database, Relation, count_ej, evaluate_ej
from repro.engine.ej import plan_ej
from repro.hypergraph import is_alpha_acyclic, tau
from repro.intervals import Interval
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce
from repro.workloads import embed_ej_into_ij, point_database, random_database


#: Hand-authored EJ hypergraphs with the method the one rule
#: (``fhtw`` vs ``ρ*`` of what the head enumerates) gives each head:
#: shape -> (query, Boolean head, count head).
RULE_TABLE = {
    "path": ("R0(A,B) ∧ R1(B,C) ∧ R2(C,D)", "yannakakis", "yannakakis"),
    "star": ("R0(A,B) ∧ R1(A,C) ∧ R2(A,D)", "yannakakis", "yannakakis"),
    # fhtw = ρ*: one bag is already optimal (3/2, 2, 4/3)
    "triangle": ("R0(A,B) ∧ R1(B,C) ∧ R2(A,C)", "generic", "generic"),
    "four_cycle": ("R0(A,B) ∧ R1(B,C) ∧ R2(C,D) ∧ R3(A,D)", "generic", "generic"),
    "lw4": (
        "R0(A,B,C) ∧ R1(B,C,D) ∧ R2(A,C,D) ∧ R3(A,B,D)",
        "generic",
        "generic",
    ),
    # two triangles sharing A: fhtw 3/2 < ρ* 5/2
    "bow_tie": (
        "R0(A,B) ∧ R1(B,C) ∧ R2(A,C) ∧ R3(A,D) ∧ R4(D,E) ∧ R5(A,E)",
        "decomposition",
        "decomposition",
    ),
    # one private column per atom (a reduction's provenance ids): the
    # Boolean head never branches on them, the count head enumerates
    # them — ρ* 3/2 vs 3
    "triangle_with_ids": (
        "R0(A,B,I) ∧ R1(B,C,J) ∧ R2(A,C,K)",
        "generic",
        "decomposition",
    ),
}


class TestTheorem413EndToEnd:
    """Q(D) iff the disjunction of EJ queries over D~ — across engines."""

    def test_all_ej_methods_agree_on_disjuncts(self):
        q = catalog.triangle_ij()
        for trial in range(5):
            db = random_database(q, 8, seed=trial, domain=40, mean_length=10)
            expected = naive_evaluate(q, db)
            result = forward_reduce(q, db)
            for method in ["generic", "decomposition", "auto"]:
                got = any(
                    evaluate_ej(eq, result.database, method)
                    for eq in result.ej_queries
                )
                assert got == expected, (trial, method)
        # the rule itself, and every kernel against the tuple oracle
        # for both heads, on each hand-authored shape
        rng = random.Random(0)
        for shape, (text, boolean, count) in RULE_TABLE.items():
            query = parse_query(text)
            h = query.hypergraph()
            assert plan_ej(h, "boolean").method == boolean, shape
            assert plan_ej(h, "count").method == count, shape
            assert plan_ej(h, "full").method == count, shape
            methods = ["auto", "decomposition", "generic"]
            if boolean == "yannakakis":
                methods.append("yannakakis")
            for trial in range(4):
                db = Database(
                    Relation(
                        atom.relation,
                        atom.variable_names,
                        {
                            tuple(rng.randint(0, 2) for _ in atom.variables)
                            for _ in range(rng.randint(2, 9))
                        },
                    )
                    for atom in query.atoms
                )
                truth = oracle.generic_join_count(
                    [
                        oracle.JoinAtom(db[a.relation], a.variable_names)
                        for a in query.atoms
                    ]
                )
                if "yannakakis" not in methods:
                    with pytest.raises(ValueError):
                        evaluate_ej(query, db, "yannakakis")
                for method in methods:
                    context = (shape, trial, method)
                    assert evaluate_ej(query, db, method) == oracle.evaluate_ej(
                        query, db, method
                    ) == bool(truth), context
                    assert count_ej(query, db, method) == oracle.count_ej(
                        query, db, method
                    ) == truth, context


class TestIotaLinearTimePath:
    """ι-acyclic queries route every disjunct through Yannakakis."""

    def test_all_disjuncts_alpha_acyclic(self):
        for name in ["fig9d", "fig9e", "fig9f"]:
            q = catalog.PAPER_IJ_QUERIES[name]()
            db = random_database(q, 6, seed=1)
            result = forward_reduce(q, db)
            for eq in result.ej_queries:
                assert is_alpha_acyclic(eq.hypergraph()), (name, eq.name)

    def test_non_iota_has_cyclic_disjunct(self):
        for name in ["triangle", "fig9a", "fig9b", "fig9c"]:
            q = catalog.PAPER_IJ_QUERIES[name]()
            hs = tau(q.hypergraph(), q.interval_variable_names())
            assert any(not is_alpha_acyclic(h) for h in hs), name


class TestDichotomyConsistency:
    """The analysis verdict matches the structure of τ(H) (Def. 6.1 vs
    Thm 6.3 vs Thm 6.6) for every catalog query."""

    @pytest.mark.parametrize("name", sorted(catalog.PAPER_IJ_QUERIES))
    def test_verdicts_consistent(self, name):
        q = catalog.PAPER_IJ_QUERIES[name]()
        analysis = analyze_query(q, compute_widths=name not in ("lw4", "4clique"))
        hs = tau(q.hypergraph(), q.interval_variable_names())
        all_acyclic = all(is_alpha_acyclic(h) for h in hs)
        assert analysis.iota_acyclic == all_acyclic
        if analysis.width_report is not None:
            if analysis.iota_acyclic:
                assert abs(analysis.width_report.ijw - 1.0) < 1e-6
            else:
                assert analysis.width_report.ijw > 1.0 + 1e-6


class TestPointDegenerationEquivalence:
    """On point databases, IJ count == EJ count of the same pattern."""

    def test_triangle(self):
        from repro.engine import count_ej
        from repro.queries import parse_query

        q_ij = catalog.triangle_ij()
        q_ej = parse_query("R(A,B) ∧ S(B,C) ∧ T(A,C)")
        for seed in range(4):
            db_ij = point_database(q_ij, 12, seed=seed, domain=6)
            db_ej = Database(
                [
                    Relation(
                        r.name,
                        r.schema,
                        {
                            tuple(x.left for x in t) for t in r.tuples
                        },
                    )
                    for r in db_ij
                ]
            )
            assert count_ij(q_ij, db_ij) == count_ej(q_ej, db_ej), seed


class TestHardnessEmbedding:
    """Theorem 6.6's reduction composes with our engine: the embedded
    instance's answer is computed correctly by the reduction engine."""

    def test_embedding_through_engine(self):
        rng = random.Random(7)
        q = catalog.figure9c_ij()  # Berge cycle R-[A]-T-[B]-S-[C]-R
        for trial in range(5):
            m = 4
            rels = [
                {(rng.randrange(m), rng.randrange(m)) for _ in range(6)}
                for _ in range(3)
            ]
            db = embed_ej_into_ij(
                q, ["R", "T", "S"], ["A", "B", "C"], rels
            )
            assert evaluate_ij(q, db) == naive_evaluate(q, db), trial


interval_pairs = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 3), st.integers(0, 8),
              st.integers(0, 3)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=25, deadline=None)
@given(interval_pairs, interval_pairs, interval_pairs)
def test_triangle_reduction_property(r_raw, s_raw, t_raw):
    """Hypothesis: forward reduction == naive semantics on arbitrary
    small triangle instances (Boolean and count)."""
    q = catalog.triangle_ij()

    def rel(name, schema, raw):
        return Relation(
            name,
            schema,
            {
                (Interval(a, a + la), Interval(b, b + lb))
                for a, la, b, lb in raw
            },
        )

    db = Database(
        [
            rel("R", ("A", "B"), r_raw),
            rel("S", ("B", "C"), s_raw),
            rel("T", ("A", "C"), t_raw),
        ]
    )
    assert evaluate_ij(q, db) == naive_evaluate(q, db)
    assert count_ij(q, db) == naive_count(q, db)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), min_size=1,
             max_size=6),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), min_size=1,
             max_size=6),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), min_size=1,
             max_size=6),
)
def test_three_way_star_property(r_raw, s_raw, t_raw):
    """Hypothesis: a 3-way intersection on one variable — the k-ary
    predicate at the heart of Lemma 4.4."""
    from repro.queries import parse_query

    q = parse_query("R([X]) ∧ S([X]) ∧ T([X])")

    def rel(name, raw):
        return Relation(
            name, ("X",), {(Interval(a, a + ln),) for a, ln in raw}
        )

    db = Database([rel("R", r_raw), rel("S", s_raw), rel("T", t_raw)])
    assert evaluate_ij(q, db) == naive_evaluate(q, db)
    assert count_ij(q, db) == naive_count(q, db)
