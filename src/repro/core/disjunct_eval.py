"""The one shared evaluation path for reduced EJ disjunctions.

The forward reduction turns an IJ query into a disjunction of EJ
queries over one shared database; *how* that disjunction is evaluated —
rank disjuncts cheapest-first, short-circuit Boolean evaluation on the
first true one, sum the (pairwise-disjoint, Lemma G.2) per-disjunct
counts — is policy that used to be duplicated between the stateless
engine and the caching session layer.  It lives here, once: the
engine (:mod:`repro.core.ij_engine`) and the session's ``reduction``
rung (:mod:`repro.core.session`, which every planned execution runs
through) route through these functions, so a smarter cost model changes
every caller at once.

*How each disjunct is run* is not decided here: ``evaluate_ej`` /
``count_ej`` plan it per (edge structure, head) by the one rule of
:func:`repro.engine.ej.plan_ej` — Yannakakis when α-acyclic, else one
flat generic join iff ``fhtw >= ρ*`` of what the head enumerates.  The
rule is per head because the two heads of one reduction enumerate
different variables: a cyclic disjunct is typically a generic join here
and a decomposition under ``count_disjunction``, whose provenance ids
would make the flat join output-bound.
"""

from __future__ import annotations

from ..engine.ej import count_ej, evaluate_ej
from ..engine.statistics import rank_disjuncts
from ..queries.query import Query
from ..reduction.forward import ForwardReductionResult


def ranked_disjuncts(result: ForwardReductionResult) -> list[Query]:
    """The result's EJ disjuncts in evaluation order (cheapest first,
    per the cardinality estimates of :mod:`repro.engine.statistics`)."""
    return rank_disjuncts(result.ej_queries, result.database)


def evaluate_disjunction(result: ForwardReductionResult) -> bool:
    """Boolean value of a reduced disjunction: disjuncts are ranked and
    evaluation short-circuits on the first true one (order never
    changes the answer, only the constant factors)."""
    return any(
        evaluate_ej(query, result.database)
        for query in ranked_disjuncts(result)
    )


def count_disjunction(result: ForwardReductionResult) -> int:
    """Total assignment count of a *disjoint* reduction: the Appendix G
    rewriting makes disjuncts pairwise disjoint, so the exact count is
    the plain sum (no ranking — every disjunct is consumed)."""
    return sum(count_ej(query, result.database) for query in result.ej_queries)
