"""repro — Boolean conjunctive queries with intersection joins.

A faithful, executable reproduction of "The Complexity of Boolean
Conjunctive Queries with Intersection Joins" (Abo Khamis, Chichirim,
Kormpa, Olteanu; PODS 2022).  The library provides:

* the forward reduction from intersection joins to disjunctions of
  equality joins over segment-tree bitstrings (Section 4);
* the backward reduction proving its optimality (Section 5);
* the ij-width and exact width solvers (fractional edge cover, fhtw,
  submodular width) (Definition 4.14);
* ι-acyclicity and the full acyclicity lattice (Section 6);
* an EJ engine (generic join, Yannakakis, hypertree decompositions) and
  the IJ engine built on it (Theorem 4.15), with counting and witness
  enumeration extensions (Appendix G);
* classical baselines (plane sweep, binary join plans, an FAQ-AI-shaped
  comparator) and workload generators.

Quickstart::

    from repro import parse_query, evaluate_ij, analyze_query
    from repro.workloads import random_database

    q = parse_query("R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])")
    print(analyze_query(q).summary())          # ij-width 3/2, not iota
    db = random_database(q, n=100, seed=1)
    print(evaluate_ij(q, db))
"""

from .intervals import Interval, SegmentTree
from .queries import Atom, Query, Variable, ivar, make_query, parse_query, pvar
from .queries import catalog
from .hypergraph import (
    Hypergraph,
    is_alpha_acyclic,
    is_berge_acyclic,
    is_gamma_acyclic,
    is_iota_acyclic,
    tau,
)
from .widths import (
    fractional_edge_cover_number,
    fractional_hypertree_width,
    ij_width,
    ij_width_report,
    submodular_width,
)
from .engine import Database, Delta, Relation, count_ej, evaluate_ej
from .reduction import DomainChanged, backward_reduce, forward_reduce
from .core import (
    IntersectionJoinEngine,
    QuerySession,
    analyze_query,
    canonical_form,
    count_ij,
    evaluate_ij,
    naive_count,
    naive_evaluate,
    witnesses_ij,
)

__version__ = "1.1.0"

__all__ = [
    "Interval",
    "SegmentTree",
    "Atom",
    "Query",
    "Variable",
    "ivar",
    "make_query",
    "parse_query",
    "pvar",
    "catalog",
    "Hypergraph",
    "is_alpha_acyclic",
    "is_berge_acyclic",
    "is_gamma_acyclic",
    "is_iota_acyclic",
    "tau",
    "fractional_edge_cover_number",
    "fractional_hypertree_width",
    "ij_width",
    "ij_width_report",
    "submodular_width",
    "Database",
    "Delta",
    "Relation",
    "count_ej",
    "evaluate_ej",
    "DomainChanged",
    "backward_reduce",
    "forward_reduce",
    "IntersectionJoinEngine",
    "QuerySession",
    "canonical_form",
    "analyze_query",
    "count_ij",
    "evaluate_ij",
    "naive_count",
    "naive_evaluate",
    "witnesses_ij",
    "__version__",
]
