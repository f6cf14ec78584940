"""Width measure tests: rho*, fhtw, subw, ijw against known values."""

import math

import pytest

from repro.hypergraph import Hypergraph
from repro.queries import catalog
from repro.widths import (
    EdgeCoverCache,
    TreeDecomposition,
    all_elimination_bagsets,
    elimination_bags,
    fhtw_with_decomposition,
    fractional_edge_cover,
    fractional_edge_cover_number,
    fractional_hypertree_width,
    ij_width,
    ij_width_report,
    non_dominated_bagsets,
    submodular_width,
    submodular_width_checked,
    td_from_elimination_order,
)

TOL = 1e-6


def H(**edges):
    return Hypergraph({k: list(v) for k, v in edges.items()})


class TestFractionalEdgeCover:
    def test_triangle_is_three_halves(self):
        h = H(R="AB", S="BC", T="AC")
        value, weights = fractional_edge_cover(h.edges, "ABC")
        assert math.isclose(value, 1.5, abs_tol=TOL)
        # the optimum assigns 1/2 to each edge
        for v in "ABC":
            cover = sum(
                w for label, w in weights.items() if v in h.edge(label)
            )
            assert cover >= 1 - TOL

    def test_lw4_is_four_thirds(self):
        h = catalog.loomis_whitney_ej(4).hypergraph()
        assert math.isclose(
            fractional_edge_cover_number(h.edges), 4 / 3, abs_tol=TOL
        )

    def test_single_edge(self):
        h = H(R="ABCD")
        assert math.isclose(
            fractional_edge_cover_number(h.edges), 1.0, abs_tol=TOL
        )

    def test_subset_cover(self):
        h = H(R="AB", S="BC")
        assert math.isclose(
            fractional_edge_cover_number(h.edges, "B"), 1.0, abs_tol=TOL
        )
        assert math.isclose(
            fractional_edge_cover_number(h.edges, ""), 0.0, abs_tol=TOL
        )

    def test_uncovered_vertex_raises(self):
        h = H(R="AB")
        with pytest.raises(ValueError):
            fractional_edge_cover(h.edges, "AZ")

    def test_cache(self):
        h = H(R="AB", S="BC", T="AC")
        cache = EdgeCoverCache(h.edges)
        assert cache.rho("ABC") == cache.rho("ABC")
        assert math.isclose(cache.rho("ABC"), 1.5, abs_tol=TOL)


class TestEliminationOrders:
    def test_bags_of_path(self):
        h = H(R="AB", S="BC")
        bags = elimination_bags(h, ["A", "B", "C"])
        assert bags[0] == ("A", frozenset("AB"))
        assert bags[1] == ("B", frozenset("BC"))

    def test_fill_in(self):
        # eliminating B in the path A-B-C connects A and C
        h = H(R="AB", S="BC")
        bags = dict(elimination_bags(h, ["B", "A", "C"]))
        assert bags["B"] == frozenset("ABC")

    def test_td_valid(self):
        h = H(R="AB", S="BC", T="AC", U="CD")
        for order in [list("ABCD"), list("DCBA"), list("BDAC")]:
            td = td_from_elimination_order(h, order)
            td.validate(h)

    def test_all_bagsets_contains_trivial(self):
        h = H(R="AB", S="BC", T="AC")
        bagsets = all_elimination_bagsets(h)
        assert frozenset({frozenset("ABC")}) in bagsets

    def test_non_dominated_pruning(self):
        small = frozenset({frozenset("AB"), frozenset("BC")})
        big = frozenset({frozenset("ABC")})
        kept = non_dominated_bagsets([small, big])
        assert small in kept and big not in kept

    def test_guard(self):
        big = Hypergraph({"e": [f"v{i}" for i in range(12)]})
        with pytest.raises(ValueError):
            all_elimination_bagsets(big)

    def test_invalid_td_rejected(self):
        h = H(R="AB", S="BC")
        bad = TreeDecomposition([frozenset("A"), frozenset("BC")], [(0, 1)])
        with pytest.raises(ValueError):
            bad.validate(h)


class TestFhtw:
    KNOWN = [
        # (hypergraph, fhtw)
        (H(R="AB", S="BC", T="AC"), 1.5),                    # EJ triangle
        (H(R="AB", S="BC", T="CD", U="DA"), 2.0),            # 4-cycle
        (H(R="AB", S="BC", T="CD"), 1.0),                    # path (acyclic)
        (H(R="ABC", S="BCD", T="ACD", U="ABD"), 4 / 3),      # EJ LW4
        # Example 6.5 H1, H2, H3
        (H(R="abc", S="bcd", T="abd"), 1.5),
    ]

    def test_known_values(self):
        for h, expected in self.KNOWN:
            assert math.isclose(
                fractional_hypertree_width(h), expected, abs_tol=TOL
            ), h

    def test_example_65_hypergraphs(self):
        """Example 6.5: the three reduced hypergraphs of Figure 4a."""
        h1 = H(R="xyz", S="yzw", T="xyw")
        h2 = Hypergraph({"R": list("xyzw"), "S": list("yzw"), "T": list("xy")})
        h3 = Hypergraph({"R": list("xyzw"), "S": list("yz"), "T": list("xyw")})
        assert math.isclose(fractional_hypertree_width(h1), 1.5, abs_tol=TOL)
        assert math.isclose(fractional_hypertree_width(h2), 1.0, abs_tol=TOL)
        assert math.isclose(fractional_hypertree_width(h3), 1.0, abs_tol=TOL)

    def test_acyclic_is_one(self):
        for q in [catalog.figure9e_ij(), catalog.path_ij(5), catalog.star_ij(4)]:
            assert math.isclose(
                fractional_hypertree_width(q.hypergraph()), 1.0, abs_tol=TOL
            )

    def test_decomposition_achieves_width(self):
        h = H(R="AB", S="BC", T="AC")
        width, td, order = fhtw_with_decomposition(h)
        td.validate(h)
        cache = EdgeCoverCache(h.edges)
        achieved = max(cache.rho(bag) for bag in td.bags)
        assert math.isclose(achieved, width, abs_tol=TOL)
        assert sorted(order) == sorted(h.vertices)

    def test_empty(self):
        assert fractional_hypertree_width(Hypergraph({})) == 0.0


class TestSubw:
    def test_triangle(self):
        h = H(R="AB", S="BC", T="AC")
        assert math.isclose(submodular_width(h), 1.5, abs_tol=1e-5)

    def test_four_cycle_strictly_below_fhtw(self):
        """The classical subw < fhtw separation: C4 has fhtw 2, subw 3/2."""
        h = H(R="AB", S="BC", T="CD", U="DA")
        assert math.isclose(submodular_width(h), 1.5, abs_tol=1e-5)
        assert math.isclose(fractional_hypertree_width(h), 2.0, abs_tol=TOL)

    def test_lw4(self):
        h = catalog.loomis_whitney_ej(4).hypergraph()
        assert math.isclose(submodular_width(h), 4 / 3, abs_tol=1e-5)

    def test_acyclic_is_one(self):
        h = H(R="AB", S="BC")
        assert math.isclose(submodular_width(h), 1.0, abs_tol=1e-5)

    def test_checked_variant(self):
        h = H(R="AB", S="BC", T="AC")
        assert math.isclose(submodular_width_checked(h), 1.5, abs_tol=1e-5)

    def test_subw_leq_fhtw_random(self):
        import random

        rng = random.Random(3)
        vertices = list("ABCDE")
        for _ in range(10):
            edges = {}
            for i in range(rng.randint(2, 4)):
                edges[f"e{i}"] = rng.sample(vertices, rng.randint(2, 3))
            h = Hypergraph(edges)
            assert submodular_width(h) <= fractional_hypertree_width(h) + 1e-5

    def test_guard(self):
        """The MILP has ``2^n`` columns: a cyclic 12-vertex input is
        refused.  (An α-acyclic one builds no MILP: its subw is 1.)"""
        big = catalog.cycle_ej(12).hypergraph()
        with pytest.raises(ValueError):
            submodular_width(big)
        acyclic = Hypergraph(
            {"e": [f"v{i}" for i in range(12)], "f": [f"v{i}" for i in range(12)]}
        )
        assert submodular_width(acyclic) == 1.0


class TestIjWidth:
    def test_triangle_ijw(self):
        q = catalog.triangle_ij()
        report = ij_width_report(q.hypergraph(), q.interval_variable_names())
        assert report.num_ej_hypergraphs == 8
        assert report.num_reduced == 1
        assert math.isclose(report.ijw, 1.5, abs_tol=1e-5)

    def test_fig9_examples(self):
        """Appendix E.4: ijw 3/2 for 9a-9c, 1 for 9d-9f."""
        expectations = {
            "fig9b": 1.5,
            "fig9c": 1.5,
            "fig9d": 1.0,
            "fig9e": 1.0,
            "fig9f": 1.0,
        }
        for name, expected in expectations.items():
            q = catalog.PAPER_IJ_QUERIES[name]()
            got = ij_width(q.hypergraph(), q.interval_variable_names())
            assert math.isclose(got, expected, abs_tol=1e-5), name

    def test_fig9a(self):
        q = catalog.figure9a_ij()
        report = ij_width_report(q.hypergraph(), q.interval_variable_names())
        assert report.num_reduced == 27
        assert len(report.classes) == 3
        assert math.isclose(report.ijw, 1.5, abs_tol=1e-5)
        subws = sorted(c.subw for c in report.classes)
        assert math.isclose(subws[0], 1.0, abs_tol=1e-5)
        assert math.isclose(subws[-1], 1.5, abs_tol=1e-5)


class TestSubwFallback:
    """An α-acyclic class has ``subw = fhtw = 1`` without the MILP; a MILP
    that fails leaves ``subw`` at the bound ``fhtw``, and the width
    report and EXPLAIN say why."""

    @pytest.mark.parametrize("k", [5, 6])
    def test_long_paths_explain(self, k):
        from repro.core import explain
        from repro.workloads import random_database

        q = catalog.path_ij(k)
        report = ij_width_report(q.hypergraph(), q.interval_variable_names())
        assert report.ijw == 1.0 and report.subw_bound is None
        text = explain(q, random_database(q, 20, seed=1))
        assert "ijw=1.0" in text and "bounded" not in text

    def test_a_failing_milp_falls_back_to_fhtw(self, monkeypatch):
        from types import SimpleNamespace

        from repro.core import explain
        from repro.sql import cost
        from repro.widths import subw
        from repro.workloads import random_database

        def failing(**_):
            return SimpleNamespace(success=False, message="HiGHS Status 4: Solve error")

        monkeypatch.setattr(subw, "milp", failing)
        monkeypatch.setattr(cost, "_width_cache", {})
        q = catalog.triangle_ij()
        report = ij_width_report(q.hypergraph(), q.interval_variable_names())
        assert math.isclose(report.ijw, 1.5, abs_tol=1e-5)  # fhtw, as subw
        assert "HiGHS Status 4" in report.subw_bound
        assert [c.subw_bound is not None for c in report.classes] == [True]
        text = explain(q, random_database(q, 40, seed=1))  # past the naive budget
        assert "subw bounded by fhtw (subw MILP failed: HiGHS Status 4" in text


@pytest.mark.slow
class TestIjWidthHeavy:
    def test_lw4_classes(self):
        """Appendix F.2.2: 6 classes; class fhtw values {2, 5/3, 3/2};
        the fhtw-2 class has subw 3/2; ijw = 5/3."""
        q = catalog.loomis_whitney4_ij()
        report = ij_width_report(q.hypergraph(), q.interval_variable_names())
        assert report.num_ej_hypergraphs == 1296
        assert report.num_reduced == 81
        assert len(report.classes) == 6
        assert math.isclose(report.ijw, 5 / 3, abs_tol=1e-5)
        fhtws = sorted(round(c.fhtw, 4) for c in report.classes)
        assert fhtws == [1.5, 1.5, 1.5, 1.5, round(5 / 3, 4), 2.0]
        heavy = next(c for c in report.classes if abs(c.fhtw - 2.0) < 1e-6)
        assert math.isclose(heavy.subw, 1.5, abs_tol=1e-5)

    def test_clique4_classes(self):
        """Appendix F.3.2: 6 classes, all fhtw = subw = 2; ijw = 2."""
        q = catalog.clique4_ij()
        report = ij_width_report(q.hypergraph(), q.interval_variable_names())
        assert report.num_reduced == 81
        assert len(report.classes) == 6
        for c in report.classes:
            assert math.isclose(c.fhtw, 2.0, abs_tol=1e-5)
            assert math.isclose(c.subw, 2.0, abs_tol=1e-5)
        assert math.isclose(report.ijw, 2.0, abs_tol=1e-5)


class TestSubwCycles:
    """Independent validation of the subw solver: the known formula
    subw(C_k) = 2 - 1/ceil(k/2) for EJ cycles [5, 26]."""

    def test_cycle_formula(self):
        from repro.queries import catalog

        for k in [3, 4, 5, 6]:
            h = catalog.cycle_ej(k).hypergraph()
            expected = 2 - 1 / -(-k // 2)
            assert math.isclose(
                submodular_width(h), expected, abs_tol=1e-5
            ), k

    def test_cycle_fhtw_is_two(self):
        from repro.queries import catalog

        for k in [4, 5, 6]:
            h = catalog.cycle_ej(k).hypergraph()
            assert math.isclose(
                fractional_hypertree_width(h), 2.0, abs_tol=1e-6
            ), k


class TestCandidateBagsets:
    def test_matches_exhaustive_enumeration(self):
        import random

        from repro.widths import candidate_bagsets

        rng = random.Random(0)
        for _ in range(15):
            verts = list("ABCDEF")[: rng.randint(3, 6)]
            edges = {}
            for i in range(rng.randint(2, 4)):
                edges[f"e{i}"] = rng.sample(
                    verts, rng.randint(2, min(3, len(verts)))
                )
            h = Hypergraph(edges)
            fast = set(candidate_bagsets(h))
            slow = set(
                non_dominated_bagsets(all_elimination_bagsets(h))
            )

            def dominates(t1, t2):
                return all(any(b1 <= b2 for b2 in t2) for b1 in t1)

            for t in slow:
                assert any(dominates(f, t) for f in fast), edges
            for f in fast:
                assert any(dominates(s, f) for s in slow), edges

    def test_trivial_cases(self):
        from repro.widths import candidate_bagsets

        assert candidate_bagsets(Hypergraph({})) == [frozenset()]
        single = Hypergraph({"e": ["A", "B"]})
        bagsets = candidate_bagsets(single)
        assert frozenset({frozenset({"A", "B"})}) in bagsets
