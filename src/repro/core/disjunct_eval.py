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

*How each disjunct is run* is not decided here but by the one rule of
:func:`repro.engine.ej.plan_ej`, per (isomorphism class, head).  The
disjuncts it runs as one generic join over non-empty relations run as
one join per core key (:func:`repro.engine.ej.generic_core`; a
reduction's disjuncts keep the query's atom order, so equal keys line
up atom by atom), their tries stacked under a disjunct level
(:func:`~repro.engine.columnar_eval.generic_batch_count` / ``_boolean``:
the members of a union supply work to one another, Carmeli–Kröll);
the rest run one by one through ``evaluate_ej`` / ``count_ej``.
``count_disjunction`` runs each key's members as one batch;
``evaluate_disjunction`` runs them in rank order in batches of 1, 1,
2, 4, ..., each when the ranking reaches its last member, so a key's
first ranked disjunct runs alone (on dense data it is the answer) and
little past the first true one is bound or sorted.
"""

from __future__ import annotations

from collections import Counter

from ..engine.columnar_eval import generic_batch_boolean, generic_batch_count
from ..engine.ej import count_ej, evaluate_ej, generic_core, join_atoms_for
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
    changes the answer, only the constant factors).  A core key's
    generic-join disjuncts run in batches of 1, 1, 2, 4, ... in rank
    order, each as large as all before it, a batch as soon as the
    ranking reaches its last member: a true disjunct early in the
    ranking (dense data) costs about its own join, a false disjunction
    a few joins."""
    db = result.database
    ran: Counter = Counter()  # per key, how many members have run
    pending: dict[tuple, list] = {}
    for query in ranked_disjuncts(result):
        key = generic_core(query, db, "boolean")
        if key is None:
            if evaluate_ej(query, db):
                return True
            continue
        batch = pending.setdefault(key, [])
        batch.append(join_atoms_for(query, db))
        if len(batch) == max(1, ran[key]):
            ran[key] += len(pending.pop(key))
            if generic_batch_boolean(batch):
                return True
    return any(map(generic_batch_boolean, pending.values()))


def count_disjunction(result: ForwardReductionResult) -> int:
    """Total assignment count of a *disjoint* reduction: the Appendix G
    rewriting makes disjuncts pairwise disjoint, so the exact count is
    the plain sum (no ranking — every disjunct is consumed), each core
    key's generic-join disjuncts summed by one batched join."""
    db = result.database
    total = 0
    batches: dict[tuple, list] = {}
    for query in result.ej_queries:
        key = generic_core(query, db, "count")
        if key is None:
            total += count_ej(query, db)
        else:
            batches.setdefault(key, []).append(join_atoms_for(query, db))
    return total + sum(map(generic_batch_count, batches.values()))
