"""Multi-hypergraphs, acyclicity notions, and the structural reduction τ.

The acyclicity lattice implemented here (Figure 5 of the paper):
Berge-acyclic ⊂ ι-acyclic ⊂ γ-acyclic ⊂ α-acyclic.
"""

from .hypergraph import Hypergraph, minimisation
from .acyclicity import (
    find_berge_cycle,
    gyo_reduce,
    is_alpha_acyclic,
    is_alpha_acyclic_definition,
    is_berge_acyclic,
    is_beta_acyclic,
    is_conformal,
    is_cycle_free,
    is_gamma_acyclic,
    is_iota_acyclic,
    join_tree,
)
from .transform import (
    is_iota_acyclic_definition,
    one_step_hypergraphs,
    part_vertex,
    reduced_structure_classes,
    tau,
    tau_with_positions,
    transform_edges,
)
from .isomorphism import are_isomorphic, isomorphism_classes

__all__ = [
    "Hypergraph",
    "minimisation",
    "find_berge_cycle",
    "gyo_reduce",
    "is_alpha_acyclic",
    "is_alpha_acyclic_definition",
    "is_berge_acyclic",
    "is_beta_acyclic",
    "is_conformal",
    "is_cycle_free",
    "is_gamma_acyclic",
    "is_iota_acyclic",
    "join_tree",
    "is_iota_acyclic_definition",
    "one_step_hypergraphs",
    "part_vertex",
    "reduced_structure_classes",
    "tau",
    "tau_with_positions",
    "transform_edges",
    "are_isomorphic",
    "isomorphism_classes",
]
