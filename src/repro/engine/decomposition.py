"""Evaluation via (fractional) hypertree decompositions (Appendix A.2.1).

The two-phase strategy the paper's upper bounds rest on:

1. materialise every bag of a tree decomposition with a worst-case
   optimal join over the projections of all overlapping relations
   (cost ``O(N^rho*(bag) log N)``),
2. run Yannakakis' algorithm over the resulting α-acyclic query whose
   join tree is the decomposition tree.

Both phases run on code arrays while every atom is columnar over one
codebook: :func:`materialise_bags` dispatches to
:func:`~repro.engine.columnar_eval.columnar_materialise_bags`, whose
bag relations are themselves columnar, so phase 2 takes the columnar
Yannakakis kernels of the same module and no row is decoded between the
inputs and the answer.  The tuple bodies below are the fallback (same
``-> None ->`` protocol as every other kernel, handed off by
:func:`~repro.engine.columnar_eval.or_tuple_tier`) and the differential
oracle.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

import networkx as nx

from ..widths.tree_decomposition import TreeDecomposition
from .columnar_eval import (
    columnar_materialise_bags,
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    or_tuple_tier,
)
from .generic_join import JoinAtom, generic_join_relation
from .relation import Relation
from .yannakakis import yannakakis_boolean, yannakakis_count, yannakakis_full


def materialise_bags(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> list[Relation]:
    """Compute one relation per bag: the worst-case-optimal join of the
    projections ``π_{bag ∩ vars(e)} R_e`` over every overlapping atom."""
    fast = columnar_materialise_bags(atoms, td)
    if fast is not None:
        return fast
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
    bag_relations = materialise_bags(atoms, td)
    bag_atoms = [JoinAtom(r) for r in bag_relations]
    tree = nx.Graph()
    tree.add_nodes_from(range(len(bag_relations)))
    tree.add_edges_from(td.tree_edges)
    return bag_atoms, tree


def evaluate_boolean_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> bool:
    """Boolean CQ evaluation: materialise bags, then Yannakakis."""
    return or_tuple_tier(
        columnar_yannakakis_boolean,
        yannakakis_boolean,
        *_bag_atoms_and_tree(atoms, td),
    )


def evaluate_full_with_decomposition(
    atoms: Sequence[JoinAtom],
    td: TreeDecomposition,
    output: Sequence[str] | None = None,
) -> Relation:
    """Full CQ evaluation through the decomposition."""
    return or_tuple_tier(
        columnar_yannakakis_full,
        yannakakis_full,
        *_bag_atoms_and_tree(atoms, td),
        output=output,
    )


def count_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> int:
    """Count satisfying assignments over all variables.

    Valid because bag materialisation preserves the assignment set of
    the original join and the decomposition tree is a join tree of the
    bag query.
    """
    return or_tuple_tier(
        columnar_yannakakis_count,
        yannakakis_count,
        *_bag_atoms_and_tree(atoms, td),
    )
