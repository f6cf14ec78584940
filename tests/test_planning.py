"""One decision layer: every plan comes from ``plan_disjunct``, every
strategy runs through the session's one ladder, the width report stays
off the decision *and* the execution path, and the EJ method of a
reduction's disjuncts is chosen in ``engine/ej.py`` alone."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import QuerySession, naive_count, naive_evaluate
from repro.core.sweep import single_shared_interval_variable
from repro.engine import Database, Relation, columnar_eval
from repro.engine.ej import plan_ej
from repro.engine.statistics import rank_order
from repro.intervals import Interval, SegmentTree
from repro.queries import catalog, parse_query
from repro.reduction import forward_reduce
from repro.sql import compile_sql, cost, lower_query
from repro.workloads import isomorphic_variants, random_database

SHAPES = {
    "triangle": catalog.triangle_ij(),
    "binary-one-interval": parse_query("R([T],[X]) ∧ S([T],[Y])"),
    "binary-two-interval": parse_query("R([A],[B]) ∧ S([A],[B])"),
    "binary-one-point": parse_query("R(K,[A]) ∧ S(K,[B])"),
    "binary-mixed": parse_query("R([A],K) ∧ S([A],K)"),
    "three-on-one": parse_query("R([A]) ∧ S([A]) ∧ T([A])"),
    "path3": catalog.path_ij(3),
    "star3": catalog.star_ij(3),
    "cycle4": catalog.cycle_ij(4),
}
SIZES = (2, 5, 12, 30, 100, 300)
BUDGETS = (0.0, 50.0, 20_000.0)


def retired_rule(query, db, budget) -> str:
    """``core/planner.py::plan_query`` as it stood before the merge."""
    brute = 1.0
    for atom in query.atoms:
        brute *= max(len(db[atom.relation]), 1)
    if brute <= budget:
        return "naive"
    if single_shared_interval_variable(query) is not None:
        return "sweep"
    return "reduction"


@pytest.mark.parametrize("shape", SHAPES)
def test_one_plan_serves_the_ast_and_its_sql_text(shape, monkeypatch):
    """9 shapes x 6 sizes x 3 budgets: the strategy is the retired
    ``plan_query``'s, it is the cheapest asymptotically-aware candidate
    whenever the budget is exceeded, and both front-ends answer like
    the oracle.  The Query AST and the SQL text it lowers to get *the
    same plan object* from the one store whenever they share a
    canonical form — the SQL binder types a column no predicate
    references as a point, so: when every interval variable is shared
    (5 of the 9 shapes)."""
    query = SHAPES[shape]
    shared_form = all(
        len(query.atoms_containing(v.name)) > 1 for v in query.interval_variables
    )
    for n in SIZES:
        db = random_database(query, n, seed=n)
        text = lower_query(query, db).sql
        (disjunct,) = compile_sql(text, db).disjuncts
        for budget in BUDGETS:
            monkeypatch.setattr(cost, "DEFAULT_NAIVE_BUDGET", budget)
            session = QuerySession(db)
            plan = session.plan(query)
            assert plan.strategy == retired_rule(query, db, budget), (n, budget)
            assert session.sql_plan(disjunct).strategy == plan.strategy
            assert (session.sql_plan(disjunct) is plan) == shared_form
            assert session.stats.sql_plan_hits == 1 + shared_form
            if plan.strategy != "naive":
                assert plan.cost == min(
                    price
                    for name, price in plan.candidates.items()
                    if name != "naive"
                )
            if n <= 30:
                expected = naive_evaluate(query, db)
                assert session.evaluate(query) is expected, (n, budget)
                assert session.sql(text) is expected, (n, budget)


@pytest.fixture
def width_reports(monkeypatch):
    """Calls to ``ij_width_report`` made by the optimizer, from an empty
    structure memo."""
    calls = []
    real = cost.ij_width_report

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cost, "ij_width_report", counting)
    monkeypatch.setattr(cost, "_width_cache", {})
    return calls


def overlap_sql(query, db, head: str) -> str:
    return lower_query(query, db).sql.replace("EXISTS", head, 1)


def test_naive_and_sweep_plans_never_price_a_width(width_reports):
    triangle = SHAPES["triangle"]
    db = random_database(triangle, 3, seed=0)
    session = QuerySession(db)
    assert session.plan(triangle).strategy == "naive"
    assert session.evaluate(triangle) == naive_evaluate(triangle, db)
    for head in ("EXISTS", "COUNT(*)"):
        session.sql(overlap_sql(triangle, db, head))
    assert session.count(triangle, strategy="naive") == naive_count(triangle, db)
    binary = SHAPES["binary-one-interval"]
    db = random_database(binary, 500, seed=1)
    session = QuerySession(db)
    assert session.plan(binary).strategy == "sweep"
    assert session.evaluate(binary) is True
    assert session.sql(overlap_sql(binary, db, "EXISTS")) is True
    assert width_reports == []


def test_widths_are_priced_once_per_structure_per_process(width_reports):
    """Running a reduction-planned query reads no width report — its
    disjuncts are planned by ``engine.ej`` where they run; only reading
    a plan's prices (``.ej_method``, EXPLAIN) pays it, once."""
    triangle = SHAPES["triangle"]
    db = random_database(triangle, 40, seed=1)
    expected = naive_evaluate(triangle, db)
    sessions = [QuerySession(db), QuerySession(db)]
    for session in sessions:
        assert session.plan(triangle).strategy == "reduction"
        for variant in isomorphic_variants(triangle, 8, seed=2):
            assert session.evaluate(variant) == expected
        assert session.sql(overlap_sql(triangle, db, "COUNT(*)")) == naive_count(
            triangle, db
        )
    assert width_reports == []
    for session in sessions:
        assert "via generic" in session.explain_sql(
            overlap_sql(triangle, db, "EXISTS")
        )["disjuncts"][0]["reason"]
    assert len(width_reports) == 1
    # a mutation drops the plan; the re-plan re-reads statistics only
    session = sessions[0]
    row = next(iter(db["R"].tuples))
    for mutate in (db.delete, db.insert):
        before = session.plan(triangle)
        mutate("R", row)
        assert session.plan(triangle) is not before
        assert session.evaluate(triangle) == naive_evaluate(triangle, db)
    assert len(width_reports) == 1
    assert session.plan(triangle).ej_method == "generic"
    assert len(width_reports) == 1


def test_a_four_clique_is_planned_without_its_width_report(width_reports):
    """The 4-clique's report takes seconds; deciding must not pay it."""
    clique = catalog.clique4_ij()
    db = random_database(clique, 6, seed=0)
    assert QuerySession(db).plan(clique).strategy == "reduction"
    assert width_reports == []


STRATEGY_LITERALS = {"naive", "sweep", "filtered"}
DECIDES_AND_RUNS = {"sql/cost.py", "core/session.py"}


def strategy_comparisons(source: str, literals=STRATEGY_LITERALS) -> list[str]:
    """Every comparison in ``source`` against a strategy literal (or a
    collection holding one)."""

    def names_a_strategy(node: ast.AST) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_a_strategy(element) for element in node.elts)
        return isinstance(node, ast.Constant) and node.value in literals

    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(names_a_strategy(n) for n in (node.left, *node.comparators))
    ]


def test_strategies_are_compared_where_they_are_decided_and_run():
    """The ladder must not grow back: ``sql/cost.py`` decides,
    ``core/session.py`` runs, and no other module branches on a
    strategy name (three ladders and two planners before the merge)."""
    assert strategy_comparisons('if plan.strategy == "naive":\n    pass') == [
        "line 1: plan.strategy == 'naive'"
    ]
    assert strategy_comparisons('x = s in ("sweep", "reduction")')
    assert strategy_comparisons('strategy == "reduction" or kind == mode') == []
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        found = strategy_comparisons(path.read_text())
        assert bool(found) == (relative in DECIDES_AND_RUNS), (relative, found)
    assert not (root / "core" / "planner.py").exists()


def test_the_reason_states_the_rule_the_ladder_applied():
    """EXPLAIN's ``reason`` names the budget test that chose the
    strategy, not a comparison of candidate costs the ladder never
    makes: the triangle at 30 tuples per relation goes to the reduction
    although its own estimate is far above the brute force, and a
    binary join under the budget runs naive although the sweep prices
    lower.  Where naive *is* the cheapest candidate the old wording
    stands (the wire golden's EXPLAIN frame)."""
    triangle = SHAPES["triangle"]
    plan = QuerySession(random_database(triangle, 30, seed=1)).plan(triangle)
    assert plan.strategy == "reduction" and plan.brute == 27_000
    assert plan.candidates["reduction"] > plan.brute
    assert plan.reason.startswith(
        "brute-force product 27000 exceeds the naive budget 20000 and no "
        "plane sweep applies: forward reduction"
    )
    binary = SHAPES["binary-one-interval"]
    plan = QuerySession(random_database(binary, 100, seed=1)).plan(binary)
    assert plan.strategy == "naive" and plan.candidates["sweep"] < plan.brute
    assert plan.reason == "brute-force product 10000 is within the naive budget 20000"
    plan = QuerySession(random_database(binary, 300, seed=1)).plan(binary)
    assert plan.strategy == "sweep"
    assert plan.reason.startswith(
        "brute-force product 90000 exceeds the naive budget 20000 and the "
        "join is binary on a single shared interval variable"
    )
    plan = QuerySession(random_database(binary, 5, seed=1)).plan(binary)
    assert plan.strategy == "naive" and plan.brute == min(plan.candidates.values())
    assert plan.reason == "brute-force product 25 is the cheapest candidate (budget 20000)"


EJ_METHOD_LITERALS = {"yannakakis", "decomposition", "generic"}


def test_ej_methods_are_compared_in_the_ej_module_alone():
    """Beside the strategy scan: the method rule must not fork again
    (``ej._plan`` vs ``DisjunctPlan.ej_method``'s query-wide override,
    reconciled through nine ``ej_method`` parameters, before the
    merge).  ``sql/cost.py`` keeps the EXPLAIN field and nothing else."""
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        source = path.read_text()
        compared = strategy_comparisons(source, EJ_METHOD_LITERALS)
        assert bool(compared) == (relative == "engine/ej.py"), (relative, compared)
        assert ("ej_method" in source) == (relative == "sql/cost.py"), relative


#: What ``repro.intervals.bitstring`` converts with: no other module of
#: ``src/`` imports them.
NODE_CONVERTERS = {"bits", "node_id", "splits"}


def node_format_uses(source: str) -> list[str]:
    """Everything in ``source`` that knows how a segment-tree node is
    written: an import of the string split family, of the converters
    from the bitstring module (or a call through it), a binary rendering
    (``format(v, "b")``, ``f"{v:b}"``, ``bin(v)``) or a prefix test
    against a non-literal (``v.startswith(u)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        hit = False
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            hit = "splits" in names or (
                (node.module or "").endswith("bitstring")
                and bool(names & NODE_CONVERTERS)
            )
        elif isinstance(node, ast.Attribute):
            hit = (
                node.attr in NODE_CONVERTERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "bitstring"
            )
        elif isinstance(node, ast.FormattedValue):
            spec = node.format_spec and ast.unparse(node.format_spec)
            hit = bool(spec) and spec.rstrip("'\"").endswith("b")
        elif isinstance(node, ast.Call):
            callee, args = node.func, node.args
            if isinstance(callee, ast.Name) and callee.id == "bin":
                hit = True
            elif isinstance(callee, ast.Name) and callee.id == "format":
                hit = (
                    len(args) == 2
                    and isinstance(args[1], ast.Constant)
                    and str(args[1].value).endswith("b")
                )
            elif isinstance(callee, ast.Attribute) and callee.attr == "startswith":
                literal = ast.Constant, ast.Tuple
                hit = bool(args) and not isinstance(args[0], literal)
        if hit:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_node_id_format_is_known_to_the_intervals_package_alone():
    """One tree, one node id, one encoding: everywhere in ``src/`` a
    node is an opaque integer.  Only ``intervals/bitstring.py`` knows
    how it is written — the backward reduction, the FAQ-AI index and
    decoded rows all hold ids, and a bitstring is only rendered, by the
    tests and figure benches, through ``bits``.  The one-step walk is a
    test oracle now (``tests/oracles/one_step.py``), not a module of
    ``src/``."""
    assert node_format_uses("from ..intervals.bitstring import splits")
    assert node_format_uses("from ..intervals.bitstring import EMPTY, bits")
    assert node_format_uses("from repro.intervals.bitstring import node_id")
    assert node_format_uses("from .bitstring import EMPTY, split_ids") == []
    assert node_format_uses("b = bitstring.bits(v)")
    assert node_format_uses('b = format(v, "b")[1:]')
    assert node_format_uses('b = format(v, "032b")')
    assert node_format_uses('b = f"{v:b}"') and node_format_uses("bin(v)")
    assert node_format_uses("if v.startswith(u):\n    pass")
    assert node_format_uses('line.startswith("#") or f"{x:.1f}"') == []
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        found = node_format_uses(path.read_text())
        assert bool(found) == (relative == "intervals/bitstring.py"), (
            relative, found,
        )
    for gone in (
        "reduction/encoding_store.py", "reduction/factored.py", "reduction/one_step.py",
    ):
        assert not (root / gone).exists()
    tree = vars(SegmentTree)
    for view in (
        "bitstrings", "seg", "leaves", "canonical_partition",
        "leaf_of_point", "leaf_of_interval", "__contains__",
    ):
        assert view not in tree, view


def test_a_dense_cyclic_count_is_not_output_bound(monkeypatch):
    """All-overlapping triangle, ``n**3`` witnesses: ``COUNT(*)`` runs
    the cyclic disjuncts as one batched generic join over their
    singleton-free cores, like ``EXISTS`` over the same data — the
    provenance ids are summed out of their atoms, so the join never
    lists a witness: at most ``n**2`` core assignments per disjunct."""
    n = 40
    triangle = SHAPES["triangle"]
    db = Database(
        Relation(
            atom.relation,
            atom.variable_names,
            [(Interval(i, 1000 + i), Interval(i, 1000 + i)) for i in range(n)],
        )
        for atom in triangle.atoms
    )
    widest = [0]
    real = columnar_eval._levelwise_join

    def measured(state):
        joined, weights = real(state)
        # column 0 is the disjunct level: the rows of the widest disjunct
        widest[0] = max(widest[0], int(np.bincount(joined[:, 0], minlength=1).max()))
        return joined, weights

    monkeypatch.setattr(columnar_eval, "_levelwise_join", measured)
    session = QuerySession(db)
    count_sql = overlap_sql(triangle, db, "COUNT(*)")
    (count_plan,) = compile_sql(count_sql, db).disjuncts
    assert session.sql_plan(count_plan).strategy == "reduction"
    assert session.sql(count_sql) == n**3
    assert 0 < widest[0] <= n**2  # core assignments, never the witnesses
    assert session.evaluate(triangle) is True
    assert session.sql_plan(count_plan).ej_method == "generic"
    assert session.plan(triangle).ej_method == "generic"
    # one artifact, two heads, one method
    reduction = session.reduction(triangle)
    for head in ("count", "boolean"):
        methods = {plan_ej(q.hypergraph(), head).method for q in reduction.ej_queries}
        assert methods == {"generic"}, head


#: ``rank_order`` orders captured at the commit whose estimator
#: resolved columns by variable name, on the ``warm_restart`` shapes.
RANKED_AT_PARENT = {
    "triangle": (catalog.triangle_ij(), 20, [3, 4, 2, 0, 7, 6, 1, 5]),
    "cycle4": (
        catalog.cycle_ij(4),
        12,
        [7, 8, 6, 3, 4, 15, 11, 14, 10, 0, 5, 12, 1, 9, 2, 13],
    ),
}


@pytest.mark.parametrize("shape", RANKED_AT_PARENT)
def test_positional_estimator_ranks_disjuncts_as_before(shape):
    query, n, order = RANKED_AT_PARENT[shape]
    result = forward_reduce(query, random_database(query, n, seed=1))
    # why position and name agree on a reduction: each transformed
    # relation's schema is its atom's variable list
    for disjunct in result.ej_queries:
        for atom in disjunct.atoms:
            assert tuple(result.database[atom.relation].schema) == (
                atom.variable_names
            )
    assert rank_order(result.ej_queries, result.database) == order
