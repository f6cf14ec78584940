"""The equality-join (EJ) evaluation engine.

Relations and databases, a worst-case optimal generic join, Yannakakis'
algorithm for acyclic queries, and hypertree-decomposition evaluation —
all on code arrays — the substrate the forward reduction targets.
"""

from .relation import Database, Delta, Relation, relation_from_mapping
from .generic_join import JoinAtom, default_variable_order
from .columnar_eval import (
    columnar_materialise_bags,
    columnar_yannakakis_boolean,
    columnar_yannakakis_count,
    columnar_yannakakis_full,
    generic_join_boolean,
    generic_join_count,
    generic_join_relation,
)
from .decomposition import bag_atoms_and_tree
from .io import (
    load_database_json,
    load_relation_csv,
    save_database_json,
    save_relation_csv,
    validate_database,
)
from .ej import (
    count_ej,
    evaluate_ej,
    evaluate_ej_full,
    join_atoms_for,
)

__all__ = [
    "Database",
    "Delta",
    "Relation",
    "relation_from_mapping",
    "JoinAtom",
    "default_variable_order",
    "generic_join_boolean",
    "generic_join_count",
    "generic_join_relation",
    "columnar_materialise_bags",
    "columnar_yannakakis_boolean",
    "columnar_yannakakis_count",
    "columnar_yannakakis_full",
    "bag_atoms_and_tree",
    "load_database_json",
    "load_relation_csv",
    "save_database_json",
    "save_relation_csv",
    "validate_database",
    "count_ej",
    "evaluate_ej",
    "evaluate_ej_full",
    "join_atoms_for",
]
