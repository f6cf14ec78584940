"""Tests for the structural reduction τ (Definition 4.5, Algorithm 1)."""

from repro.hypergraph import (
    Hypergraph,
    is_alpha_acyclic,
    one_step_hypergraphs,
    part_vertex,
    reduced_structure_classes,
    tau,
    tau_with_positions,
)
from repro.hypergraph.isomorphism import (
    are_isomorphic,
    hypergraph_labelling,
    isomorphism_classes,
)
from repro.queries import catalog


class TestOneStep:
    def test_example_4_6(self):
        """Example 4.6: resolving [A] in R,S,T = {A,B,C},{A,B,C},{A}."""
        h = Hypergraph({"e1": ["A", "B", "C"], "e2": ["A", "B", "C"], "e3": ["A"]})
        results = one_step_hypergraphs(h, "A")
        assert len(results) == 6  # 3! permutations
        # permutation (e1, e2, e3)
        target, positions = next(
            (g, p) for g, p in results
            if p == {"e1": 1, "e2": 2, "e3": 3}
        )
        assert target.edge("e1") == frozenset({"A1", "B", "C"})
        assert target.edge("e2") == frozenset({"A1", "A2", "B", "C"})
        assert target.edge("e3") == frozenset({"A1", "A2", "A3"})
        # permutation (e3, e2, e1)
        target2, _ = next(
            (g, p) for g, p in results
            if p == {"e3": 1, "e2": 2, "e1": 3}
        )
        assert target2.edge("e3") == frozenset({"A1"})
        assert target2.edge("e2") == frozenset({"A1", "A2", "B", "C"})
        assert target2.edge("e1") == frozenset({"A1", "A2", "A3", "B", "C"})

    def test_part_vertex_names(self):
        assert part_vertex("A", 1) == "A1"
        assert part_vertex("X", 3) == "X3"


class TestTauCounts:
    """|τ(H)| = ∏_X k_X! for the paper's queries.

    Note: Appendix E.4.4 prints "3!·2!·1! = 12" for Q4, but both [B] and
    [C] occur in two atoms, so the count is 3!·2!·2! = 24 (the paper's
    Example 4.6/4.8 confirms six permutations for [A] alone).
    """

    EXPECTED = {
        "triangle": 8,       # 2!^3
        "fig9a": 216,        # 3!^3
        "fig9b": 72,         # 3!·3!·2!
        "fig9c": 24,         # 2!·3!·2!
        "fig9d": 24,         # 3!·2!·2! (paper's E.4.4 prints 12)
        "fig9e": 12,         # 2!·1!·3!·1!·1!
        "fig9f": 4,          # 2!·2!·1!
    }

    def test_counts(self):
        for name, expected in self.EXPECTED.items():
            q = catalog.PAPER_IJ_QUERIES[name]()
            got = len(tau(q.hypergraph(), q.interval_variable_names()))
            assert got == expected, name

    def test_lw4_and_clique(self):
        lw4 = catalog.loomis_whitney4_ij()
        assert len(tau(lw4.hypergraph(), lw4.interval_variable_names())) == 1296
        c4 = catalog.clique4_ij()
        assert len(tau(c4.hypergraph(), c4.interval_variable_names())) == 1296


class TestReducedClasses:
    """Appendix E.4/F: counts after dropping singletons and collapsing."""

    EXPECTED_REDUCED = {
        "triangle": 1,
        "fig9a": 27,
        "fig9b": 9,
        "fig9c": 3,
        "fig9e": 3,
        "fig9f": 1,
    }

    def test_reduced_counts(self):
        for name, expected in self.EXPECTED_REDUCED.items():
            q = catalog.PAPER_IJ_QUERIES[name]()
            hs = tau(q.hypergraph(), q.interval_variable_names())
            assert len(reduced_structure_classes(hs)) == expected, name

    def test_iso_class_counts(self):
        expectations = {"fig9a": 3, "fig9b": 3}
        for name, expected in expectations.items():
            q = catalog.PAPER_IJ_QUERIES[name]()
            hs = tau(q.hypergraph(), q.interval_variable_names())
            reps = list(reduced_structure_classes(hs).values())
            assert len(isomorphism_classes(reps)) == expected, name

    def test_triangle_reduces_to_ej_triangle(self):
        """Section 1.1: all 8 disjuncts share the central EJ triangle."""
        q = catalog.triangle_ij()
        hs = tau(q.hypergraph(), q.interval_variable_names())
        reps = list(reduced_structure_classes(hs).values())
        assert len(reps) == 1
        ej_triangle = Hypergraph(
            {"R": ["A1", "B1"], "S": ["B1", "C1"], "T": ["A1", "C1"]}
        )
        assert are_isomorphic(reps[0], ej_triangle)


class TestPositions:
    def test_positions_determine_schemas(self):
        q = catalog.triangle_ij()
        results = tau_with_positions(q.hypergraph(), q.interval_variable_names())
        assert len(results) == 8
        seen = set()
        for graph, posmap in results:
            key = tuple(
                sorted(
                    (x, label, i)
                    for x, positions in posmap.items()
                    for label, i in positions.items()
                )
            )
            assert key not in seen
            seen.add(key)
            for x, positions in posmap.items():
                assert sorted(positions.values()) == list(
                    range(1, len(positions) + 1)
                )
                for label, i in positions.items():
                    for j in range(1, i + 1):
                        assert part_vertex(x, j) in graph.edge(label)


class TestIsomorphism:
    def test_hash_invariance(self):
        a = Hypergraph({"R": ["A", "B"], "S": ["B", "C"]})
        b = Hypergraph({"X": ["P", "Q"], "Y": ["Q", "Z"]})
        assert hypergraph_labelling(a).key == hypergraph_labelling(b).key
        assert are_isomorphic(a, b)

    def test_non_isomorphic(self):
        a = Hypergraph({"R": ["A", "B"], "S": ["B", "C"]})
        c = Hypergraph({"R": ["A", "B"], "S": ["A", "B"]})
        assert not are_isomorphic(a, c)

    def test_classes_grouping(self):
        graphs = [
            Hypergraph({"R": ["A", "B"], "S": ["B", "C"]}),
            Hypergraph({"X": ["P", "Q"], "Y": ["Q", "Z"]}),
            Hypergraph({"R": ["A", "B"], "S": ["A", "B"]}),
        ]
        classes = isomorphism_classes(graphs)
        assert sorted(len(c) for c in classes) == [1, 2]

    def test_alpha_acyclicity_of_tau_members_fig9d(self):
        q = catalog.figure9d_ij()
        for h in tau(q.hypergraph(), q.interval_variable_names()):
            assert is_alpha_acyclic(h)
