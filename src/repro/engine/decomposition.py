"""Evaluation via (fractional) hypertree decompositions (Appendix A.2.1).

The two-phase strategy the paper's upper bounds rest on:

1. materialise every bag of a tree decomposition with a worst-case
   optimal join over the projections of all overlapping relations
   (cost ``O(N^rho*(bag) log N)``),
2. run Yannakakis' algorithm over the resulting α-acyclic query whose
   join tree is the decomposition tree.

:func:`bag_atoms_and_tree` is phase 1 in the shape phase 2 takes: any
Yannakakis kernel of :mod:`repro.engine.columnar_eval` — Boolean, count
(bag materialisation preserves the assignment set) or full — applied to
its result is that head's answer.  Both phases run on code arrays, so no
row is decoded between the inputs and the answer.  *When* a query is run
this way is :func:`repro.engine.ej.plan_ej`'s decision: iff it is cyclic
and its ``fhtw`` is below the ``ρ*`` of what the head enumerates.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..widths.tree_decomposition import TreeDecomposition
from .columnar_eval import columnar_materialise_bags
from .generic_join import JoinAtom


def bag_atoms_and_tree(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> tuple[list[JoinAtom], nx.Graph]:
    """The α-acyclic bag query of ``td`` over ``atoms``: one atom per
    materialised bag, and the decomposition tree as its join tree."""
    bag_relations = columnar_materialise_bags(atoms, td)
    bag_atoms = [JoinAtom(r) for r in bag_relations]
    tree = nx.Graph()
    tree.add_nodes_from(range(len(bag_relations)))
    tree.add_edges_from(td.tree_edges)
    return bag_atoms, tree
