"""EJ evaluation on Python tuples: the oracle for
:mod:`repro.engine.columnar_eval`.

Yannakakis' algorithm [35] on ``Relation`` set algebra and dict
counters, the generic join [27, 34] on nested dict tries, bag
materialisation (Appendix A.2.1) by projecting tuple sets — and
:func:`evaluate_ej` / :func:`count_ej` / :func:`evaluate_ej_full`,
which plan exactly like :mod:`repro.engine.ej` and run every step
here.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterator, Sequence

import networkx as nx

from repro.engine.ej import join_atoms_for, plan_ej
from repro.engine.generic_join import JoinAtom, default_variable_order
from repro.engine.relation import Database, Relation
from repro.queries.query import Query
from repro.widths.tree_decomposition import TreeDecomposition

Value = Hashable


# ----------------------------------------------------------------------
# Yannakakis on relations of tuples
# ----------------------------------------------------------------------


def _rooted_orders(tree: nx.Graph, root) -> tuple[list, dict]:
    """BFS order from the root and the parent map."""
    order = [root]
    parent = {root: None}
    for u in order:
        for v in tree.neighbors(u):
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


def _atom_relations(atoms: Sequence[JoinAtom]) -> dict[int, Relation]:
    return {
        i: Relation(f"n{i}", atom.variables, atom.relation.tuples)
        for i, atom in enumerate(atoms)
    }


def yannakakis_boolean(atoms: Sequence[JoinAtom], tree: nx.Graph) -> bool:
    """Boolean acyclic evaluation: bottom-up semijoins along the join
    tree (nodes of ``tree`` are indices into ``atoms``)."""
    relations = _atom_relations(atoms)
    if any(len(r) == 0 for r in relations.values()):
        return False
    if tree.number_of_nodes() == 0:
        return True
    components = list(nx.connected_components(tree))
    for component in components:
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            relations[p] = relations[p].semijoin(relations[node])
            if len(relations[p]) == 0:
                return False
    return True


def yannakakis_full(
    atoms: Sequence[JoinAtom],
    tree: nx.Graph,
    output: Sequence[str] | None = None,
) -> Relation:
    """Full acyclic evaluation via the full reducer + bottom-up joins.

    With ``output`` given, intermediate results are projected onto the
    output variables plus the variables still needed for future joins,
    keeping intermediates output-bounded.
    """
    relations = _atom_relations(atoms)
    all_vars: list[str] = []
    for atom in atoms:
        for v in atom.variables:
            if v not in all_vars:
                all_vars.append(v)
    out_vars = list(output) if output is not None else all_vars

    if tree.number_of_nodes() == 0:
        return Relation("result", out_vars, set())
    components = list(nx.connected_components(tree))
    results: list[Relation] = []
    for component in components:
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        # full reducer: bottom-up then top-down semijoins
        for node in reversed(order):
            p = parent[node]
            if p is not None:
                relations[p] = relations[p].semijoin(relations[node])
        for node in order:
            p = parent[node]
            if p is not None:
                relations[node] = relations[node].semijoin(relations[p])
        # Bottom-up joins with projection.  After absorbing a child, a
        # node may only drop attributes that are neither output nor in
        # its own bag schema: its own schema carries every link to the
        # parent and to children not yet absorbed (running intersection).
        out_set = set(out_vars)
        acc = {node: relations[node] for node in order}
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            joined = acc[p].join(acc[node])
            keep = [
                a for a in joined.schema
                if a in out_set or a in relations[p].schema
            ]
            acc[p] = joined.project(keep)
        results.append(acc[root])
    final = results[0]
    for r in results[1:]:
        final = final.join(r)
    present = [v for v in out_vars if v in final.schema]
    return final.project(present, name="result")


def yannakakis_count(atoms: Sequence[JoinAtom], tree: nx.Graph) -> int:
    """Number of satisfying assignments over *all* variables, via the
    classical join-tree counting DP (unbounded Python ints).

    Each node keeps, per tuple, the number of extensions by its subtree's
    private variables; messages multiply counts of children grouped by
    the shared attributes.
    """
    if tree.number_of_nodes() == 0:
        return 0
    relations = _atom_relations(atoms)
    counts: dict[int, dict[tuple, int]] = {
        i: {t: 1 for t in r.tuples} for i, r in relations.items()
    }
    total = 1
    for component in nx.connected_components(tree):
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        # variables private to each subtree must not be double counted:
        # process bottom-up, aggregating child counts onto shared keys.
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            child_rel = relations[node]
            parent_rel = relations[p]
            shared = [a for a in parent_rel.schema if a in child_rel.schema]
            child_idx = [child_rel.position(a) for a in shared]
            parent_idx = [parent_rel.position(a) for a in shared]
            message: dict[tuple, int] = {}
            for t, c in counts[node].items():
                key = tuple(t[i] for i in child_idx)
                message[key] = message.get(key, 0) + c
            new_counts: dict[tuple, int] = {}
            for t, c in counts[p].items():
                key = tuple(t[i] for i in parent_idx)
                if key in message:
                    new_counts[t] = c * message[key]
            counts[p] = new_counts
        total *= sum(counts[root].values())
        if total == 0:
            return 0
    return total


# ----------------------------------------------------------------------
# the trie generic join
# ----------------------------------------------------------------------


def _build_trie(atom: JoinAtom, order: Sequence[str]) -> dict:
    positions = [
        atom.variables.index(v) for v in order if v in atom.variables
    ]
    root: dict = {}
    for t in atom.relation.tuples:
        node = root
        for p in positions:
            node = node.setdefault(t[p], {})
    return root


def generic_join(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> Iterator[dict[str, Value]]:
    """Enumerate all satisfying assignments of the natural join."""
    order = list(variable_order) if variable_order else default_variable_order(atoms)
    var_set = {v for atom in atoms for v in atom.variables}
    if set(order) != var_set:
        raise ValueError("variable order must cover exactly the join variables")
    tries = [_build_trie(atom, order) for atom in atoms]
    # atom index -> ordered list of its variables' levels
    atom_levels: list[list[int]] = []
    for atom in atoms:
        atom_levels.append(
            [i for i, v in enumerate(order) if v in atom.variables]
        )
    # level -> atoms whose trie advances at this level
    advancing: list[list[int]] = [[] for _ in order]
    for a, levels in enumerate(atom_levels):
        for level in levels:
            advancing[level].append(a)

    assignment: dict[str, Value] = {}
    nodes: list[dict] = list(tries)

    def recurse(level: int) -> Iterator[dict[str, Value]]:
        if level == len(order):
            yield dict(assignment)
            return
        active = advancing[level]
        if not active:
            # variable constrained by no atom: impossible by construction
            raise AssertionError("unconstrained variable")
        candidates = min((nodes[a] for a in active), key=len)
        for value in candidates:
            if all(value in nodes[a] for a in active):
                saved = [nodes[a] for a in active]
                for a in active:
                    nodes[a] = nodes[a][value]
                assignment[order[level]] = value
                yield from recurse(level + 1)
                del assignment[order[level]]
                for a, node in zip(active, saved):
                    nodes[a] = node

    yield from recurse(0)


def generic_join_boolean(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> bool:
    """True iff the join is non-empty (stops at the first witness)."""
    for _ in generic_join(atoms, variable_order):
        return True
    return False


def generic_join_count(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> int:
    """Number of satisfying assignments of the join."""
    return sum(1 for _ in generic_join(atoms, variable_order))


def generic_join_relation(
    atoms: Sequence[JoinAtom],
    output: Sequence[str],
    name: str = "join",
    variable_order: Sequence[str] | None = None,
) -> Relation:
    """Materialise the join projected onto ``output``."""
    tuples = set()
    for assignment in generic_join(atoms, variable_order):
        tuples.add(tuple(assignment[v] for v in output))
    return Relation(name, output, tuples)


# ----------------------------------------------------------------------
# decomposition evaluation on tuples
# ----------------------------------------------------------------------


def materialise_bags(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> list[Relation]:
    """Compute one relation per bag: the worst-case-optimal join of the
    projections ``π_{bag ∩ vars(e)} R_e`` over every overlapping atom."""
    bags: list[Relation] = []
    for i, bag in enumerate(td.bags):
        bag_vars = sorted(bag, key=str)
        parts: list[JoinAtom] = []
        for atom in atoms:
            positions = [
                j for j, v in enumerate(atom.variables) if v in bag
            ]
            if not positions:
                continue
            if len(positions) == 1:
                (j,) = positions
                rows = {(t[j],) for t in atom.relation.tuples}
            else:
                rows = set(map(itemgetter(*positions), atom.relation.tuples))
            projected = Relation(
                f"proj_{atom.relation.name}_{i}",
                [atom.variables[j] for j in positions],
                rows,
            )
            parts.append(JoinAtom(projected))
        covered = {v for part in parts for v in part.variables}
        if set(bag_vars) - covered:
            raise ValueError(
                f"bag {bag_vars} contains vertices covered by no atom"
            )
        bags.append(
            generic_join_relation(parts, bag_vars, name=f"bag{i}")
        )
    return bags


def _bag_atoms_and_tree(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> tuple[list[JoinAtom], nx.Graph]:
    bag_atoms = [JoinAtom(r) for r in materialise_bags(atoms, td)]
    tree = nx.Graph()
    tree.add_nodes_from(range(len(bag_atoms)))
    tree.add_edges_from(td.tree_edges)
    return bag_atoms, tree


def count_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> int:
    """Tuple bag materialisation, then the dict counting DP."""
    return yannakakis_count(*_bag_atoms_and_tree(atoms, td))


# ----------------------------------------------------------------------
# the ej entry points, every step on tuples
# ----------------------------------------------------------------------


def evaluate_ej(query: Query, db: Database, method: str = "auto") -> bool:
    atoms = join_atoms_for(query, db)
    if query.atoms and any(len(a.relation) == 0 for a in atoms):
        return False
    plan = plan_ej(query.hypergraph(), "boolean", method)
    if plan.method == "generic":
        return generic_join_boolean(atoms)
    if plan.method == "yannakakis":
        return yannakakis_boolean(atoms, plan.tree)
    return yannakakis_boolean(*_bag_atoms_and_tree(atoms, plan.td))


def count_ej(query: Query, db: Database, method: str = "auto") -> int:
    atoms = join_atoms_for(query, db)
    if query.atoms and any(len(a.relation) == 0 for a in atoms):
        return 0
    plan = plan_ej(query.hypergraph(), "count", method)
    if plan.method == "generic":
        return generic_join_count(atoms)
    if plan.method == "yannakakis":
        return yannakakis_count(atoms, plan.tree)
    return count_with_decomposition(atoms, plan.td)


def evaluate_ej_full(
    query: Query,
    db: Database,
    output: Sequence[str] | None = None,
    method: str = "auto",
) -> Relation:
    atoms = join_atoms_for(query, db)
    variables = [v.name for v in query.variables]
    target = list(output) if output is not None else variables
    if query.atoms and any(len(a.relation) == 0 for a in atoms):
        return Relation("result", [v for v in target if v in variables], ())
    plan = plan_ej(query.hypergraph(), "full", method)
    if plan.method == "generic":
        return generic_join_relation(atoms, target)
    if plan.method == "yannakakis":
        return yannakakis_full(atoms, plan.tree, output=output)
    return yannakakis_full(*_bag_atoms_and_tree(atoms, plan.td), output=output)
