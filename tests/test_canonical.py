"""The one canonical labelling: exact, bounded and the same in every
process.

* a seeded differential — ``canonical_form(a).key == canonical_form(b).key``
  exactly when the exhaustive search of :mod:`oracles.canonical` says
  ``a`` and ``b`` are isomorphic — over random queries with self-joins,
  swapped argument positions, mixed point/interval kinds and
  disconnected components, plus ``isomorphic_variants``; and the same
  for plain hypergraphs against VF2;
* adversarial shapes that must share a key and finish fast;
* the canonical representative answers as the query does;
* ``plan_ej`` decides once per isomorphism class and relabels each plan
  onto the asking hypergraph;
* the shape memos stay bounded;
* keys and routing slots do not depend on ``str`` hashing.

CI runs this module across the ``REPRO_FUZZ_SEED`` matrix.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

import repro
from oracles.canonical import reference_isomorphic, reference_key
from repro.core import naive_count, naive_evaluate
from repro.core.session import canonical_form
from repro.engine import ej
from repro.hypergraph import (
    Hypergraph,
    are_isomorphic,
    is_alpha_acyclic,
    isomorphism_classes,
    tau,
)
from repro.hypergraph.isomorphism import hypergraph_labelling
from repro.queries import Atom, Query, Variable, catalog
from repro.sql import cost
from repro.workloads import isomorphic_variants, random_database

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


# ----------------------------------------------------------------------
# random structures
# ----------------------------------------------------------------------


def random_query(rng: random.Random, max_atoms: int = 5) -> Query:
    """Atoms over ``R``/``S`` (self-joins), arities 1–3, variables of
    both kinds; unshared variables leave components disconnected."""
    kinds = [rng.random() < 0.6 for _ in range(rng.randint(1, 5))]
    atoms = []
    for i in range(rng.randint(1, max_atoms)):
        arity = rng.randint(1, min(3, len(kinds)))
        atoms.append(
            Atom(
                f"t{i}",
                rng.choice("RS"),
                tuple(Variable(f"x{j}", kinds[j]) for j in rng.sample(range(len(kinds)), arity)),
            )
        )
    return Query(tuple(atoms))


def _query(atoms) -> Query:
    return Query(tuple(Atom(f"t{i}", r, tuple(vs)) for i, (r, vs) in enumerate(atoms)))


def near_misses(rng: random.Random, query: Query) -> list[Query]:
    """Small edits, most of which change the isomorphism class."""
    atoms = [(a.relation, list(a.variables)) for a in query.atoms]
    out = []
    wide = [i for i, (_, vs) in enumerate(atoms) if len(vs) >= 2]
    if wide:  # swap two argument positions of one atom
        edited = [(r, list(vs)) for r, vs in atoms]
        vs = edited[rng.choice(wide)][1]
        vs[0], vs[-1] = vs[-1], vs[0]
        out.append(_query(edited))
    flip = rng.choice(query.variables).name  # flip one variable's kind
    out.append(
        _query(
            [(r, [Variable(v.name, v.is_interval != (v.name == flip)) for v in vs]) for r, vs in atoms],
        )
    )
    i = rng.randrange(len(atoms))  # move one atom to the other relation
    edited = list(atoms)
    edited[i] = ("S" if atoms[i][0] == "R" else "R", atoms[i][1])
    out.append(_query(edited))
    if len(query.atoms) <= 3:  # a disjoint copy of itself
        copy = [(r, [Variable(v.name + "'", v.is_interval) for v in vs]) for r, vs in atoms]
        out.append(_query(atoms + copy))
        out.append(_query(copy[::-1] + atoms))
    return out


def random_hypergraph(rng: random.Random) -> Hypergraph:
    n = rng.randint(1, 6)
    edges = {f"e{i}": rng.sample(range(n), rng.randint(1, n)) for i in range(rng.randint(1, 5))}
    return Hypergraph(edges, vertices=range(n))


def relabelled(rng: random.Random, h: Hypergraph) -> Hypergraph:
    names = [f"u{i}" for i in range(h.num_vertices)]
    rng.shuffle(names)
    rename = dict(zip(h.vertices, names))
    edges = list(h.edges.values())
    rng.shuffle(edges)
    vertices = [rename[v] for v in h.vertices]
    rng.shuffle(vertices)
    return Hypergraph(
        {f"f{i}": [rename[v] for v in e] for i, e in enumerate(edges)}, vertices=vertices
    )


def self_join_cycle(k: int) -> Query:
    return _query(
        [("R", [Variable(f"x{i}", True), Variable(f"x{(i + 1) % k}", True)]) for i in range(k)],
    )


# ----------------------------------------------------------------------
# exactness
# ----------------------------------------------------------------------


class TestExactness:
    def test_query_keys_agree_with_the_exhaustive_search(self):
        rng = random.Random(f"{FUZZ_SEED}:canonical")
        corpus = []
        for _ in range(80):
            base = random_query(rng)
            corpus += [base, *isomorphic_variants(base, 2, seed=rng.randrange(1 << 30))]
            for miss in near_misses(rng, base):
                corpus += [miss, *isomorphic_variants(miss, 1, seed=rng.randrange(1 << 30))]
        forms = [canonical_form(q) for q in corpus]
        keys = [form.key for form in forms]
        references = [reference_key(q) for q in corpus]
        # key(a) == key(b) exactly when reference(a) == reference(b)
        pairs = set(zip(keys, references))
        assert len(pairs) == len(set(keys)) == len(set(references))
        assert len(pairs) < len(corpus) / 2  # plenty of isomorphic pairs
        for q, form in zip(corpus, forms):
            assert reference_key(form.query) == reference_key(q)
        representative = {}
        for form in forms:  # one key, one representative
            assert representative.setdefault(form.key, form.query) == form.query

    def test_hypergraph_keys_agree_with_vf2(self):
        rng = random.Random(f"{FUZZ_SEED}:hypergraphs")
        graphs = []
        for _ in range(60):
            h = random_hypergraph(rng)
            graphs += [h, relabelled(rng, h)]
        by_size: dict[tuple, list[Hypergraph]] = {}
        for h in graphs:
            by_size.setdefault((h.num_vertices, h.num_edges), []).append(h)
        compared = 0
        for group in by_size.values():
            for i, a in enumerate(group):
                for b in group[i:]:
                    assert are_isomorphic(a, b) == reference_isomorphic(a, b), (a, b)
                    compared += 1
        assert compared > len(graphs)

    def test_tau_classes_of_lw4(self):
        """LW4's 1,296 disjunct hypergraphs fall into 40 classes (before
        singleton dropping; Appendix F.2.2 counts the 6 after it)."""
        hypergraphs = tau(catalog.loomis_whitney4_ij().hypergraph())
        classes = isomorphism_classes(hypergraphs)
        assert (len(hypergraphs), len(classes)) == (1296, 40)
        assert sorted(i for c in classes for i in c) == list(range(1296))


class TestAdversarial:
    SHAPES = {
        "self-join 9-cycle": self_join_cycle(9),
        "12 identical unary atoms": _query([("R", [Variable("A", True)])] * 12),
        "K5 self-join": _query(
            [
                ("R", [Variable(f"x{i}", True), Variable(f"x{j}", True)])
                for i in range(5)
                for j in range(i + 1, 5)
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shuffled_copies_share_a_key_fast(self, name):
        query = self.SHAPES[name]
        start = time.perf_counter()
        form = canonical_form(query)
        for variant in isomorphic_variants(query, 4, seed=FUZZ_SEED):
            other = canonical_form(variant)
            assert other.key == form.key
            assert other.query == form.query
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_regular_graphs_need_the_least_certificate(self, n):
        """Colour refinement sees every node of a 3-regular graph alike,
        so only the search over individualisations, keeping the least
        certificate, makes relabelled copies meet."""
        rng = random.Random(f"{FUZZ_SEED}:regular:{n}")
        graphs = [nx.random_regular_graph(3, n, seed=rng.randrange(1 << 30)) for _ in range(3)]
        # Frucht's graph has no automorphism but the identity; a repeat
        # gives one isomorphic pair
        graphs.append(nx.frucht_graph() if n == 12 else graphs[0])
        hypergraphs = [Hypergraph(dict(enumerate(g.edges))) for g in graphs]
        for a in hypergraphs:
            assert hypergraph_labelling(relabelled(rng, a)).key == hypergraph_labelling(a).key
            for b in hypergraphs:
                assert are_isomorphic(a, b) == reference_isomorphic(a, b)
        for g in graphs:  # both orientations of every edge: a self-join
            query = _query(
                [("R", [Variable(f"x{u}", True), Variable(f"x{v}", True)]) for e in g.edges for u, v in (e, e[::-1])]
            )
            key = canonical_form(query).key
            assert all(canonical_form(v).key == key for v in isomorphic_variants(query, 2, seed=n))

    def test_the_self_join_cycle_is_told_from_its_neighbours(self):
        keys = {canonical_form(self_join_cycle(k)).key for k in (8, 9, 10)}
        two_cycles = _query(
            [("R", [Variable(f"x{i}", True), Variable(f"x{(i + 1) % 4}", True)]) for i in range(4)]
            + [("R", [Variable(f"y{i}", True), Variable(f"y{(i + 1) % 5}", True)]) for i in range(5)],
        )
        keys.add(canonical_form(two_cycles).key)
        assert len(keys) == 4


class TestRepresentative:
    @pytest.mark.parametrize("trial", range(6))
    def test_representative_counts_as_the_query(self, trial):
        rng = random.Random(f"{FUZZ_SEED}:semantics:{trial}")
        kinds = {"R": (True, rng.random() < 0.5), "S": (True,)}
        pools = {True: ["A", "B", "C"], False: ["p", "q"]}
        atoms = []
        for _ in range(rng.randint(2, 4)):
            relation = rng.choice("RS")
            names = {k: rng.sample(pools[k], 2) for k in pools}
            atoms.append((relation, [Variable(names[k].pop(), k) for k in kinds[relation]]))
        query = _query(atoms)
        form = canonical_form(query)
        schema = Query(
            tuple(
                Atom(r, r, tuple(Variable(f"c{i}", k) for i, k in enumerate(kinds[r])))
                for r in sorted(query.relations)
            )
        )
        db = random_database(schema, 4, seed=trial, domain=12.0, mean_length=4.0)
        assert naive_count(form.query, db) == naive_count(query, db)
        assert naive_evaluate(form.query, db) == naive_evaluate(query, db)
        assert {original for _, original in form.label_map} == {a.label for a in query.atoms}


# ----------------------------------------------------------------------
# plans, memo bounds
# ----------------------------------------------------------------------


def _is_join_tree(h: Hypergraph, tree) -> bool:
    edges = list(h.edges.values())
    for v in h.vertices:
        holding = [i for i, e in enumerate(edges) if v in e]
        sub = tree.subgraph(holding)
        if len(holding) > 1 and (
            sub.number_of_nodes() != len(holding)
            or sub.number_of_edges() != len(holding) - 1
        ):
            return False
    return sorted(tree.nodes) == list(range(len(edges)))


class TestPlans:
    def test_one_decision_per_class_relabelled_per_hypergraph(self, monkeypatch):
        monkeypatch.setattr(ej, "_plans", {})
        decided = []
        real = ej._decide
        monkeypatch.setattr(ej, "_decide", lambda *a: decided.append(a) or real(*a))
        hypergraphs = tau(catalog.cycle_ij(4).hypergraph())
        for head in ("boolean", "full"):
            for h in hypergraphs:
                plan = ej.plan_ej(h, head)
                if plan.tree is not None:
                    assert is_alpha_acyclic(h) and _is_join_tree(h, plan.tree)
                if plan.td is not None:
                    plan.td.validate(h)
        classes = len(isomorphism_classes(hypergraphs))
        assert len(decided) == 2 * classes < len(hypergraphs)


class TestShapeMemoBounds:
    def test_plans_and_width_reports_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(ej, "SHAPE_MEMO_SIZE", 3)
        monkeypatch.setattr(cost, "SHAPE_MEMO_SIZE", 3)
        monkeypatch.setattr(ej, "_plans", {})
        monkeypatch.setattr(cost, "_width_cache", {})
        shapes = [catalog.path_ij(k) for k in range(1, 5)]
        shapes += [catalog.star_ij(3), catalog.cycle_ij(4)]
        for query in shapes:
            ej.plan_ej(query.hypergraph())
            cost.query_widths(query)
            assert len(ej._plans) <= 3 and len(cost._width_cache) <= 3
        ej.plan_ej(shapes[3].hypergraph())  # a hit refreshes its entry
        ej.plan_ej(catalog.triangle_ij().hypergraph())
        kept = {key for key, _, _ in ej._plans}
        assert hypergraph_labelling(shapes[3].hypergraph()).key in kept
        assert hypergraph_labelling(shapes[4].hypergraph()).key not in kept
        assert list(cost._width_cache) == [canonical_form(q).key for q in shapes[3:]]


# ----------------------------------------------------------------------
# the same key in every process
# ----------------------------------------------------------------------

_KEYS_SCRIPT = """
from repro.core.session import canonical_form
from repro.hypergraph import tau
from repro.hypergraph.isomorphism import hypergraph_labelling
from repro.hypergraph.transform import reduced_structure_classes
from repro.queries import catalog, parse_query
from repro.service.pool import WorkerPool
from repro.widths.fhtw import fhtw_with_decomposition
from repro.workloads import isomorphic_variants

queries = [
    catalog.triangle_ij(),
    catalog.cycle_ij(4),
    catalog.figure9e_ij(),
    parse_query("R([A],[B]) & R([B],[C]) & S(p) & S(q) & T([C], p)"),
]
queries += [v for q in queries for v in isomorphic_variants(q, 2, seed=1)]
print(repr([(canonical_form(q).key, WorkerPool._slot(q)) for q in queries]))
print(repr([hypergraph_labelling(h).key for h in tau(catalog.triangle_ij().hypergraph())]))
clique4 = tau(catalog.clique4_ij().hypergraph())
print(repr([h.vertices for h in clique4]))
decompositions = []
for h in reduced_structure_classes(clique4).values():
    _, td, order = fhtw_with_decomposition(h)
    decompositions.append((list(order), [sorted(bag) for bag in td.bags]))
print(repr(decompositions))
"""


def test_keys_and_slots_do_not_depend_on_str_hashing():
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _KEYS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 4
