"""EJ query evaluation dispatcher.

Chooses the asymptotically right strategy per query structure:

* α-acyclic queries -> Yannakakis over a join tree (linear time);
* cyclic queries -> fhtw-optimal hypertree decomposition: worst-case
  optimal bag materialisation + Yannakakis (``O(N^fhtw log N)``);
* ``method='generic'`` forces one flat worst-case optimal join.

Each strategy is one set of kernels on code arrays
(:mod:`repro.engine.columnar_eval`).  Reduction artifacts are evaluated
as they are; row-backed relations handed to these entry points are
dictionary-encoded at the kernels' door.
"""

from __future__ import annotations

from typing import Literal, Sequence

import networkx as nx

from ..hypergraph.acyclicity import is_alpha_acyclic, join_tree
from ..hypergraph.hypergraph import Hypergraph
from ..queries.query import Query
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
from .decomposition import (
    count_with_decomposition,
    evaluate_boolean_with_decomposition,
    evaluate_full_with_decomposition,
)
from .generic_join import JoinAtom
from .relation import Database, Relation

Method = Literal["auto", "yannakakis", "decomposition", "generic"]


def join_atoms_for(query: Query, db: Database) -> list[JoinAtom]:
    """Bind every atom of the query to its database relation."""
    atoms: list[JoinAtom] = []
    for atom in query.atoms:
        relation = db[atom.relation]
        atoms.append(JoinAtom(relation, atom.variable_names))
    return atoms


def _label_tree_to_index_tree(query: Query, tree: nx.Graph) -> nx.Graph:
    index = {atom.label: i for i, atom in enumerate(query.atoms)}
    out = nx.Graph()
    out.add_nodes_from(range(len(query.atoms)))
    out.add_edges_from((index[a], index[b]) for a, b in tree.edges)
    return out


def _plan(query: Query, method: Method) -> Method:
    if method != "auto":
        return method
    h = query.hypergraph()
    return "yannakakis" if is_alpha_acyclic(h) else "decomposition"


_td_cache: dict[frozenset, TreeDecomposition] = {}


def optimal_decomposition(h: Hypergraph) -> TreeDecomposition:
    """An fhtw-optimal tree decomposition of ``h``, computed on the
    singleton-free core and extended back with one bag per uncovered
    hyperedge (singleton variables do not affect the width [4, 5], but
    they would inflate the subset DP exponentially).

    Results are cached by edge structure: the forward reduction asks for
    the same few shapes across its many disjuncts.
    """
    key = frozenset((label, e) for label, e in h.edges.items())
    cached = _td_cache.get(key)
    if cached is not None:
        return cached
    reduced = h.drop_singleton_vertices()
    if reduced.num_edges:
        _, td, _ = fhtw_with_decomposition(reduced)
        bags = list(td.bags)
        tree_edges = list(td.tree_edges)
    else:
        bags = []
        tree_edges = []
    kept = set(reduced.vertices)
    for e in h.edges.values():
        if any(e <= bag for bag in bags):
            continue
        core = e & kept
        host = next(
            (i for i, bag in enumerate(bags) if core <= bag), None
        )
        bags.append(frozenset(e))
        if host is not None:
            tree_edges.append((host, len(bags) - 1))
        elif len(bags) > 1:
            tree_edges.append((0, len(bags) - 1))
    td = TreeDecomposition(bags, tree_edges)
    td.validate(h)
    _td_cache[key] = td
    return td


def evaluate_ej(query: Query, db: Database, method: Method = "auto") -> bool:
    """Boolean evaluation of an EJ conjunctive query."""
    if not query.is_ej:
        raise ValueError(f"{query.name} is not an EJ query")
    atoms = join_atoms_for(query, db)
    # an empty relation empties the conjunction — O(atoms), and len()
    # is array-cheap, so reduced disjuncts over pruned variants
    # short-circuit before any join machinery runs
    if query.atoms and any(len(a.relation) == 0 for a in atoms):
        return False
    strategy = _plan(query, method)
    if strategy == "generic":
        return generic_join_boolean(atoms)
    if strategy == "yannakakis":
        tree = join_tree(query.hypergraph())
        if tree is None:
            raise ValueError(f"{query.name} is not alpha-acyclic")
        index_tree = _label_tree_to_index_tree(query, tree)
        return columnar_yannakakis_boolean(atoms, index_tree)
    td = optimal_decomposition(query.hypergraph())
    return evaluate_boolean_with_decomposition(atoms, td)


def count_ej(query: Query, db: Database, method: Method = "auto") -> int:
    """Number of satisfying assignments of an EJ query."""
    if not query.is_ej:
        raise ValueError(f"{query.name} is not an EJ query")
    atoms = join_atoms_for(query, db)
    if query.atoms and any(len(a.relation) == 0 for a in atoms):
        return 0
    strategy = _plan(query, method)
    if strategy == "generic":
        return generic_join_count(atoms)
    if strategy == "yannakakis":
        tree = join_tree(query.hypergraph())
        if tree is None:
            raise ValueError(f"{query.name} is not alpha-acyclic")
        index_tree = _label_tree_to_index_tree(query, tree)
        return columnar_yannakakis_count(atoms, index_tree)
    td = optimal_decomposition(query.hypergraph())
    return count_with_decomposition(atoms, td)


def evaluate_ej_full(
    query: Query,
    db: Database,
    output: Sequence[str] | None = None,
    method: Method = "auto",
) -> Relation:
    """Materialise the satisfying assignments (projected to ``output``)."""
    if not query.is_ej:
        raise ValueError(f"{query.name} is not an EJ query")
    atoms = join_atoms_for(query, db)
    strategy = _plan(query, method)
    if strategy == "generic":
        variables = [v.name for v in query.variables]
        target = list(output) if output is not None else variables
        return generic_join_relation(atoms, target)
    if strategy == "yannakakis":
        tree = join_tree(query.hypergraph())
        if tree is None:
            raise ValueError(f"{query.name} is not alpha-acyclic")
        index_tree = _label_tree_to_index_tree(query, tree)
        return columnar_yannakakis_full(atoms, index_tree, output=output)
    td = optimal_decomposition(query.hypergraph())
    return evaluate_full_with_decomposition(atoms, td, output=output)


# NOTE: disjunction evaluation (rank + short-circuit) lives in
# repro.core.disjunct_eval — the single shared path for every consumer
# of a forward reduction's EJ disjuncts.
