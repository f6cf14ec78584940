"""The paper's primary contribution: the IJ evaluation engine, its
baselines, and the structural analysis toolkit."""

from .ij_engine import (
    IntersectionJoinEngine,
    count_ij,
    evaluate_ij,
    witnesses_from_reduction,
    witnesses_ij,
)
from .session import (
    AdmissionController,
    CanonicalForm,
    QuerySession,
    SessionStats,
    canonical_form,
    execute_sql,
    explain,
    explain_sql,
)
from .reduction_cache import (
    ReductionCache,
    database_digests,
    database_fingerprint,
    reduction_key,
    relation_digest,
)
from .disjunct_eval import (
    count_disjunction,
    evaluate_disjunction,
    ranked_disjuncts,
)
from .baselines import (
    BinaryJoinPlan,
    binary_join_evaluate,
    naive_count,
    naive_evaluate,
    naive_witnesses,
)
from .sweep import sweep_join, sweep_join_count
from .classical_joins import forward_scan_join, partition_join
from .faqai import (
    IntervalPairIndex,
    faqai_triangle_evaluate,
    inequality_pairs,
    pair_partitions_with_witnesses,
    relaxed_width_lower_bound,
)
from .full_queries import aggregate_ij, select_ij, top_k_ij
from .membership import (
    coerce_membership_database,
    count_membership,
    evaluate_membership,
)
from .analysis import QueryAnalysis, analyze_query, nice_fraction

__all__ = [
    "IntersectionJoinEngine",
    "count_ij",
    "evaluate_ij",
    "witnesses_from_reduction",
    "witnesses_ij",
    "AdmissionController",
    "CanonicalForm",
    "QuerySession",
    "SessionStats",
    "canonical_form",
    "database_fingerprint",
    "ReductionCache",
    "database_digests",
    "reduction_key",
    "relation_digest",
    "count_disjunction",
    "evaluate_disjunction",
    "ranked_disjuncts",
    "BinaryJoinPlan",
    "binary_join_evaluate",
    "naive_count",
    "naive_evaluate",
    "naive_witnesses",
    "sweep_join",
    "sweep_join_count",
    "forward_scan_join",
    "partition_join",
    "IntervalPairIndex",
    "faqai_triangle_evaluate",
    "inequality_pairs",
    "pair_partitions_with_witnesses",
    "relaxed_width_lower_bound",
    "aggregate_ij",
    "select_ij",
    "top_k_ij",
    "coerce_membership_database",
    "count_membership",
    "evaluate_membership",
    "execute_sql",
    "explain",
    "explain_sql",
    "QueryAnalysis",
    "analyze_query",
    "nice_fraction",
]
