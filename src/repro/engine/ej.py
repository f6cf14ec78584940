"""EJ query evaluation: the one place an EJ method is chosen.

Appendix A.2.1 gives two ways to run a cyclic EJ query: one flat
worst-case-optimal join (``O(N^ρ*)``) or bags + Yannakakis
(``O(N^fhtw)``).  :func:`plan_ej` reads the choice off those two widths,
once per (edge structure, head), and memoizes it with what the method
needs:

* α-acyclic -> ``yannakakis`` over the index join tree (linear time);
* otherwise ``generic`` iff ``fhtw >= ρ*`` and ``decomposition`` (the
  fhtw-optimal bags, then Yannakakis) iff ``fhtw < ρ*``.

``ρ*`` covers *the variables the head must enumerate*, which is why the
plan is per head.  The Boolean head enumerates the singleton-free core:
a variable private to one atom is existential and the depth-first join
never branches on it (triangle, 4-cycle, LW4: ``fhtw = ρ*`` -> one
generic join; bow-tie: 3/2 < 5/2 -> decomposition).  ``count`` and
``full`` enumerate every variable, every provenance id included, so a
flat join would be output-bound where the bags count in ``N^fhtw``
(triangle with one id per atom: 3/2 < 3 -> decomposition).

``method=`` forces a kernel — the tests run each as the others'
reference; no caller outside this package sets it.  Each kernel runs on
code arrays (:mod:`repro.engine.columnar_eval`); row-backed relations
are dictionary-encoded at the kernels' door.  Ranking and
short-circuiting a reduction's disjuncts is
:mod:`repro.core.disjunct_eval`'s.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Sequence

import networkx as nx

from ..hypergraph.acyclicity import join_tree
from ..hypergraph.hypergraph import Hypergraph
from ..queries.query import Query
from ..widths.edge_cover import fractional_edge_cover_number
from ..widths.fhtw import fhtw_with_decomposition
from ..widths.tree_decomposition import TreeDecomposition
from .columnar_eval import (
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    generic_join_boolean,
    generic_join_count,
    generic_join_relation,
)
from .decomposition import bag_atoms_and_tree
from .generic_join import JoinAtom
from .relation import Database, Relation

Method = Literal["auto", "yannakakis", "decomposition", "generic"]
Head = Literal["boolean", "count", "full"]


def join_atoms_for(query: Query, db: Database) -> list[JoinAtom]:
    """Bind every atom of the query to its database relation."""
    return [JoinAtom(db[a.relation], a.variable_names) for a in query.atoms]


class EJPlan(NamedTuple):
    """How one EJ structure is run for one head: the method and what it
    needs — nodes of ``tree`` index the hypergraph's edges (the query's
    atoms) in order."""

    method: str  # yannakakis | decomposition | generic
    tree: nx.Graph | None = None
    td: TreeDecomposition | None = None


#: Plans by (edge structure, edge order, head, requested method): the
#: forward reduction asks for the same few shapes across its many
#: disjuncts, every op.
_plans: dict[tuple, EJPlan] = {}


def plan_ej(
    h: Hypergraph, head: Head = "boolean", method: Method = "auto"
) -> EJPlan:
    """The memoized plan of hypergraph ``h`` for ``head`` (see the module
    docstring for the rule ``method='auto'`` applies)."""
    key = (h.structure_key(), h.edge_labels, head, method)
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = _decide(h, head, method)
    return plan


def _decide(h: Hypergraph, head: Head, method: Method) -> EJPlan:
    if method in ("auto", "yannakakis"):
        tree = join_tree(h)
        if tree is not None:
            index = {label: i for i, label in enumerate(h.edge_labels)}
            return EJPlan("yannakakis", tree=nx.relabel_nodes(tree, index))
        if method == "yannakakis":
            raise ValueError(f"{h!r} is not alpha-acyclic")
    if method == "generic":
        return EJPlan("generic")
    core = h.drop_singleton_vertices()
    width, td = _decompose(h, core)
    if method == "auto":
        enumerated = core if head == "boolean" else h
        if width >= fractional_edge_cover_number(enumerated.edges) - 1e-6:
            return EJPlan("generic")
    return EJPlan("decomposition", td=td)


def _decompose(h: Hypergraph, core: Hypergraph) -> tuple[float, TreeDecomposition]:
    """``fhtw(h)`` and an optimal tree decomposition, computed on the
    singleton-free ``core`` and extended back with one bag per uncovered
    hyperedge (singleton variables do not affect the width [4, 5], but
    they would inflate the subset DP exponentially)."""
    width = 1.0
    bags: list[frozenset] = []
    tree_edges: list[tuple[int, int]] = []
    if core.num_edges:
        width, td, _ = fhtw_with_decomposition(core)
        bags = list(td.bags)
        tree_edges = list(td.tree_edges)
    kept = set(core.vertices)
    for e in h.edges.values():
        if any(e <= bag for bag in bags):
            continue
        host = next((i for i, bag in enumerate(bags) if e & kept <= bag), None)
        bags.append(frozenset(e))
        if host is not None:
            tree_edges.append((host, len(bags) - 1))
        elif len(bags) > 1:
            tree_edges.append((0, len(bags) - 1))
    td = TreeDecomposition(bags, tree_edges)
    td.validate(h)
    return max(width, 1.0), td


def _no_rows(query: Query, output: Sequence[str] | None = None) -> Relation:
    names = [v.name for v in query.variables]
    if output is not None:
        names = [v for v in output if v in names]
    return Relation("result", names, ())


#: head -> (acyclic kernel, flat kernel, answer over an empty relation)
_KERNELS = {
    "boolean": (columnar_yannakakis_boolean, generic_join_boolean, lambda q: False),
    "count": (columnar_yannakakis_count, generic_join_count, lambda q: 0),
    "full": (columnar_yannakakis_full, generic_join_relation, _no_rows),
}


def _run(head: Head, query: Query, db: Database, method: Method, **output):
    """The one ladder: bind the atoms, plan the structure for ``head``,
    run the plan's kernel (``output`` is the full head's projection)."""
    if not query.is_ej:
        raise ValueError(f"{query.name} is not an EJ query")
    atoms = join_atoms_for(query, db)
    yannakakis, generic, empty = _KERNELS[head]
    # an empty relation empties the conjunction — O(atoms), and len()
    # is array-cheap, so reduced disjuncts over pruned variants
    # short-circuit before any join machinery runs
    if query.atoms and any(len(a.relation) == 0 for a in atoms):
        return empty(query, **output)
    plan = plan_ej(query.hypergraph(), head, method)
    if plan.method == "generic":
        return generic(atoms, **output)
    if plan.method == "yannakakis":
        return yannakakis(atoms, plan.tree, **output)
    return yannakakis(*bag_atoms_and_tree(atoms, plan.td), **output)


def evaluate_ej(query: Query, db: Database, method: Method = "auto") -> bool:
    """Boolean evaluation of an EJ conjunctive query."""
    return _run("boolean", query, db, method)


def count_ej(query: Query, db: Database, method: Method = "auto") -> int:
    """Number of satisfying assignments of an EJ query."""
    return _run("count", query, db, method)


def evaluate_ej_full(
    query: Query,
    db: Database,
    output: Sequence[str] | None = None,
    method: Method = "auto",
) -> Relation:
    """Materialise the satisfying assignments (projected to ``output``)."""
    return _run("full", query, db, method, output=output)
