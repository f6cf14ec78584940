"""Evaluation via (fractional) hypertree decompositions (Appendix A.2.1).

The two-phase strategy the paper's upper bounds rest on:

1. materialise every bag of a tree decomposition with a worst-case
   optimal join over the projections of all overlapping relations
   (cost ``O(N^rho*(bag) log N)``),
2. run Yannakakis' algorithm over the resulting α-acyclic query whose
   join tree is the decomposition tree.

Both phases run on code arrays:
:func:`~repro.engine.columnar_eval.columnar_materialise_bags` returns
block-backed bag relations over the atoms' own codebook, so phase 2
takes the Yannakakis kernels of the same module and no row is decoded
between the inputs and the answer.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..widths.tree_decomposition import TreeDecomposition
from .columnar_eval import (
    columnar_materialise_bags,
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
)
from .generic_join import JoinAtom
from .relation import Relation


def _bag_atoms_and_tree(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> tuple[list[JoinAtom], nx.Graph]:
    bag_relations = columnar_materialise_bags(atoms, td)
    bag_atoms = [JoinAtom(r) for r in bag_relations]
    tree = nx.Graph()
    tree.add_nodes_from(range(len(bag_relations)))
    tree.add_edges_from(td.tree_edges)
    return bag_atoms, tree


def evaluate_boolean_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> bool:
    """Boolean CQ evaluation: materialise bags, then Yannakakis."""
    return columnar_yannakakis_boolean(*_bag_atoms_and_tree(atoms, td))


def evaluate_full_with_decomposition(
    atoms: Sequence[JoinAtom],
    td: TreeDecomposition,
    output: Sequence[str] | None = None,
) -> Relation:
    """Full CQ evaluation through the decomposition."""
    return columnar_yannakakis_full(
        *_bag_atoms_and_tree(atoms, td), output=output
    )


def count_with_decomposition(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> int:
    """Count satisfying assignments over all variables.

    Valid because bag materialisation preserves the assignment set of
    the original join and the decomposition tree is a join tree of the
    bag query.
    """
    return columnar_yannakakis_count(*_bag_atoms_and_tree(atoms, td))
