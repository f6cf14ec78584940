"""Targeted tests for less-travelled code paths across modules."""

import math
import random

import pytest

from repro.core import evaluate_disjunction
from repro.engine import (
    Database,
    JoinAtom,
    Relation,
)
from repro.reduction.forward import EncodedQuery, ForwardReductionResult
from repro.engine.generic_join import default_variable_order
from repro.hypergraph import Hypergraph
from repro.intervals import Interval, SegmentTree
from repro.intervals.bitstring import EMPTY
from repro.queries import parse_query
from repro.widths import modular_width_lower_bound, submodular_width


class TestSegmentTreeEdgeCases:
    def test_empty_interval_set(self):
        tree = SegmentTree([])
        assert tree.size == 1
        assert tree.leaf_id(42.0) == EMPTY  # the root is the one leaf
        assert tree.cp_ids(Interval(0, 1)) == []

    def test_single_point_interval(self):
        tree = SegmentTree([Interval.point(5)])
        cp = tree.cp_ids(Interval.point(5))
        assert len(cp) == 1
        seg = tree.segment(cp[0])
        assert seg.lo == seg.hi == 5

    def test_intervals_property(self):
        xs = [Interval(0, 1), Interval(2, 3)]
        tree = SegmentTree(xs)
        assert tree.intervals == xs

    def test_contains_and_bitstrings(self):
        # one point pair, five leaves: depth 3 holds the first two
        tree = SegmentTree([Interval(0, 1)])
        nodes = tree.node_ids()
        assert EMPTY in nodes and 0b10 in nodes and 0b1001 in nodes
        assert 0 not in nodes and 0b1010 not in nodes
        assert len(nodes) == tree.size == 9


class TestGenericJoinInternals:
    def test_default_variable_order_by_degree(self):
        r = Relation("R", ("A", "B"), [])
        s = Relation("S", ("B", "C"), [])
        atoms = [JoinAtom(r), JoinAtom(s)]
        order = default_variable_order(atoms)
        assert order[0] == "B"  # degree 2 first

    def test_disjunction_short_circuit(self):
        q_true = parse_query("Qt := R(A)")
        q_broken = parse_query("Qb := MISSING(A)")
        db = Database([Relation("R", ("A",), [(1,)])])
        # the shared disjunct-evaluation path short-circuits on truth...
        result = ForwardReductionResult(
            q_true, [EncodedQuery(q_true, {})], db
        )
        assert evaluate_disjunction(result)
        # ...and surfaces a missing relation instead of masking it
        broken = ForwardReductionResult(
            q_broken, [EncodedQuery(q_broken, {})], db
        )
        with pytest.raises(KeyError):
            evaluate_disjunction(broken)


class TestModularLowerBound:
    def test_below_subw(self):
        rng = random.Random(0)
        vertices = list("ABCD")
        for _ in range(10):
            edges = {}
            for i in range(rng.randint(2, 4)):
                edges[f"e{i}"] = rng.sample(vertices, rng.randint(2, 3))
            h = Hypergraph(edges)
            assert (
                modular_width_lower_bound(h) <= submodular_width(h) + 1e-6
            ), edges

    def test_triangle_bound_tight(self):
        h = Hypergraph({"R": ["A", "B"], "S": ["B", "C"], "T": ["A", "C"]})
        assert math.isclose(
            modular_width_lower_bound(h), 1.5, abs_tol=1e-9
        )

    def test_empty(self):
        assert modular_width_lower_bound(Hypergraph({})) == 0.0


class TestRelationMisc:
    def test_column(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        assert sorted(r.column("A")) == [1, 3]

    def test_contains(self):
        r = Relation("R", ("A",), [(1,)])
        assert (1,) in r
        assert [1] in r
        assert (2,) not in r

    def test_database_iteration(self):
        db = Database([Relation("R", ("A",), []), Relation("S", ("B",), [])])
        assert {r.name for r in db} == {"R", "S"}
        assert db.relation_names == ("R", "S")


class TestAnalysisMisc:
    def test_non_ij_query_skips_faqai(self):
        from repro.core import analyze_query

        q = parse_query("R([A], K) ∧ S([A], K)")
        analysis = analyze_query(q, compute_widths=False)
        assert analysis.faqai_exponent is None

    def test_summary_without_widths(self):
        from repro.core import analyze_query

        q = parse_query("R([A],[B]) ∧ S([A],[B])")
        text = analyze_query(q, compute_widths=False).summary()
        assert "acyclicity" in text
        assert "predicted runtime" in text


class TestHypergraphMisc:
    def test_repr_runs(self):
        h = Hypergraph({"R": ["A", "B"]})
        assert "R" in repr(h)

    def test_isolated_vertex_in_restrict(self):
        h = Hypergraph({"R": ["A", "B"], "S": ["C"]})
        r = h.restrict({"A", "C"})
        assert set(r.vertices) == {"A", "C"}

    def test_canonical_key_distinguishes_sizes(self):
        from repro.hypergraph.isomorphism import hypergraph_labelling

        a = Hypergraph({"R": ["A", "B"]})
        b = Hypergraph({"R": ["A", "B"], "S": ["B", "C"]})
        assert hypergraph_labelling(a).key != hypergraph_labelling(b).key
