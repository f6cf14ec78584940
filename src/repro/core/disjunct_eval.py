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
``count_ej`` plan it per (isomorphism class, head) by the one rule of
:func:`repro.engine.ej.plan_ej` — Yannakakis when α-acyclic, else one
flat generic join iff ``fhtw >= ρ*`` of the singleton-free core.  Both
heads enumerate that core: a provenance id is private to its atom, so
``evaluate_disjunction`` never branches on it and ``count_disjunction``
sums it out of its atom, and a cyclic disjunct runs the same method
under either.
"""

from __future__ import annotations

from ..engine.ej import count_ej, evaluate_ej
from ..engine.statistics import rank_order
from ..queries.query import Query
from ..reduction.forward import ForwardReductionResult


def evaluation_order(result: ForwardReductionResult) -> tuple[int, ...]:
    """The result's disjunct indices cheapest-first (per the
    cardinality estimates of :mod:`repro.engine.statistics`), ranked
    once per artifact: memoized as
    :attr:`~repro.reduction.forward.ForwardReductionResult.disjunct_order`,
    which a cache frame may already carry."""
    if result.disjunct_order is None:
        result.disjunct_order = tuple(
            rank_order(result.ej_queries, result.database)
        )
    return result.disjunct_order


def ranked_disjuncts(result: ForwardReductionResult) -> list[Query]:
    """The result's EJ disjuncts in :func:`evaluation_order`."""
    queries = result.ej_queries
    return [queries[i] for i in evaluation_order(result)]


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
