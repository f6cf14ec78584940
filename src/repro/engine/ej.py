"""EJ query evaluation: the one place an EJ method is chosen.

Appendix A.2.1 gives two ways to run a cyclic EJ query: one flat
worst-case-optimal join (``O(N^ρ*)``) or bags + Yannakakis
(``O(N^fhtw)``).  :func:`plan_ej` reads the choice off those two widths,
once per (isomorphism class, head), and memoizes it with what the method
needs:

* α-acyclic -> ``yannakakis`` over the index join tree (linear time);
* otherwise ``generic`` iff ``fhtw >= ρ*`` and ``decomposition`` (the
  fhtw-optimal bags, then Yannakakis) iff ``fhtw < ρ*``.

``ρ*`` covers *the variables the head must enumerate*, which is why the
plan is per head.  ``boolean`` and ``count`` enumerate the
singleton-free core: a variable private to one atom is existential for
the one and summed out of its atom for the other (the generic join
weights each core assignment by how many rows of each atom extend it),
so neither join branches on it (triangle, 4-cycle, LW4, with or without
provenance ids: ``fhtw = ρ*`` -> one generic join; bow-tie: 3/2 < 5/2
-> decomposition).  ``full`` enumerates every variable, every
provenance id included, so a flat join would be output-bound where the
bags materialise in ``N^fhtw`` (triangle with one id per atom: 3/2 < 3
-> decomposition).

``method=`` forces a kernel — the tests run each as the others'
reference; no caller outside this package sets it.  Each kernel runs on
code arrays (:mod:`repro.engine.columnar_eval`); row-backed relations
are dictionary-encoded at the kernels' door.  Ranking a reduction's
disjuncts, short-circuiting them and running its generic-join ones in
batches of one :func:`generic_core` key is
:mod:`repro.core.disjunct_eval`'s.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Sequence

import networkx as nx

from ..hypergraph.acyclicity import join_tree
from ..hypergraph.hypergraph import Hypergraph
from ..hypergraph.isomorphism import SHAPE_MEMO_SIZE, hypergraph_labelling
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


#: Plans by (canonical key, whether the head enumerates every variable,
#: requested method), an LRU of :data:`SHAPE_MEMO_SIZE`: one decision per
#: isomorphism class, stored in canonical positions (tree nodes index
#: edges, bags hold vertices) and relabelled onto the asking hypergraph.
_plans: dict[tuple, EJPlan] = {}


def plan_ej(
    h: Hypergraph, head: Head = "boolean", method: Method = "auto"
) -> EJPlan:
    """The memoized plan of hypergraph ``h`` for ``head`` (see the module
    docstring for the rule ``method='auto'`` applies)."""
    labelling = hypergraph_labelling(h)
    key = (labelling.key, head == "full", method)
    plan = _plans.pop(key, None)
    if plan is None:
        edges = list(h.edges.values())
        position = {v: j for j, v in enumerate(labelling.vertices)}
        canonical = {i: [position[v] for v in edges[e]] for i, e in enumerate(labelling.edges)}
        plan = _decide(Hypergraph(canonical), head, method)
        if len(_plans) >= SHAPE_MEMO_SIZE:
            del _plans[next(iter(_plans))]
    _plans[key] = plan
    if plan.tree is not None:
        return plan._replace(tree=nx.relabel_nodes(plan.tree, dict(enumerate(labelling.edges))))
    if plan.td is not None:
        bags = [frozenset(labelling.vertices[j] for j in bag) for bag in plan.td.bags]
        return plan._replace(td=TreeDecomposition(bags, list(plan.td.tree_edges)))
    return plan


#: Plans by query object (held, so its ``id`` stays its own): each shared
#: disjunct of :func:`repro.reduction.forward.disjunction` is planned once.
_query_plans: dict[tuple, tuple[Query, EJPlan]] = {}


def query_plan(query: Query, head: Head, method: Method = "auto") -> EJPlan:
    """:func:`plan_ej` of ``query``'s hypergraph, memoized per query object."""
    key = (id(query), head, method)
    entry = _query_plans.get(key)
    if entry is None or entry[0] is not query:
        if len(_query_plans) >= 4096:
            _query_plans.clear()
        entry = _query_plans[key] = (query, plan_ej(query.hypergraph(), head, method))
    return entry[1]


def generic_core(query: Query, db: Database, head: Head) -> tuple | None:
    """:attr:`Query.shared_names` if :func:`_run` runs ``query`` over
    ``db`` for ``head`` as one generic join, else ``None``.  Like
    :func:`_run`, a query over an empty relation is answered before its
    plan."""
    if (
        any(len(db[atom.relation]) == 0 for atom in query.atoms)
        or query_plan(query, head).method != "generic"
        or not query.is_ej
    ):
        return None
    return query.shared_names


def _decide(h: Hypergraph, head: Head, method: Method) -> EJPlan:
    """The plan of a canonical hypergraph (edge labels are positions)."""
    if method in ("auto", "yannakakis"):
        tree = join_tree(h)
        if tree is not None:
            return EJPlan("yannakakis", tree=tree)
        if method == "yannakakis":
            raise ValueError(f"{h!r} is not alpha-acyclic")
    if method == "generic":
        return EJPlan("generic")
    core = h.drop_singleton_vertices()
    width, td = _decompose(h, core)
    if method == "auto":
        enumerated = h if head == "full" else core
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
    plan = query_plan(query, head, method)
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
