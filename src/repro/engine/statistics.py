"""Lightweight cardinality statistics for plan ordering.

The forward reduction yields up to ``∏ k_X!`` EJ disjuncts sharing one
database; Boolean evaluation short-circuits on the first true one, so
the order matters.  These estimators rank disjuncts cheapest-first:
α-acyclic before cyclic, then by estimated join cost from relation
cardinalities and join-variable selectivities.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..hypergraph.acyclicity import is_alpha_acyclic
from ..queries.query import Query
from .relation import Database, Relation

#: memo type threaded through one ranking pass: ``(relation name,
#: attribute) -> distinct count``.  The reduction's disjuncts share a
#: handful of variant relations, so most lookups repeat across
#: disjuncts — and each first lookup is itself array-cheap
#: (``np.unique`` over a ``uint32`` code column) while the relation is
#: columnar.
StatsCache = dict[tuple[str, str], int]


def distinct_count(
    relation: Relation, attribute: str, cache: StatsCache | None = None
) -> int:
    """Number of distinct values in a column (exact; these relations
    are in memory anyway).  Columnar relations answer from their code
    arrays without decoding tuples."""
    if cache is None:
        return relation.distinct_count(attribute)
    key = (relation.name, attribute)
    count = cache.get(key)
    if count is None:
        count = cache[key] = relation.distinct_count(attribute)
    return count


def estimate_join_cardinality(
    query: Query,
    db: Database,
    cache: StatsCache | None = None,
    sizes: dict[str, float] | None = None,
) -> float:
    """A System-R style estimate of the full join cardinality:
    product of relation sizes divided by, per join variable, the
    largest (n-1) distinct counts among the atoms sharing it.

    Columns are resolved by position (``relation.schema[index]``): a
    reduced relation's schema is its atom's variable list, a SQL source
    table's is not.  ``sizes`` overrides ``|R|`` per atom label (the SQL
    optimizer's filter-discounted scans)."""
    if not query.atoms:
        return 0.0
    size_product = 1.0
    columns: dict[str, list[tuple[Relation, int]]] = {}
    for atom in query.atoms:
        relation = db[atom.relation]
        size = len(relation) if sizes is None else sizes[atom.label]
        size_product *= max(size, 1)
        for index, v in enumerate(atom.variables):
            columns.setdefault(v.name, []).append((relation, index))
    selectivity = 1.0
    for slots in columns.values():
        if len(slots) < 2:
            continue
        counts = sorted(
            (max(distinct_count(r, r.schema[i], cache), 1) for r, i in slots),
            reverse=True,
        )
        for c in counts[:-1]:
            selectivity /= c
    return size_product * selectivity


def estimate_evaluation_cost(
    query: Query, db: Database, cache: StatsCache | None = None
) -> float:
    """Cost estimate for Boolean evaluation of one disjunct.

    Acyclic queries cost about the input size (Yannakakis); cyclic ones
    add the estimated intermediate cardinality of their bags.  Used
    only for *ordering* — answers never depend on it.
    """
    input_size = sum(len(db[a.relation]) for a in query.atoms)
    if is_alpha_acyclic(query.hypergraph()):
        return float(input_size)
    blowup = estimate_join_cardinality(query, db, cache)
    return input_size + math.sqrt(max(blowup, 0.0)) + 10.0 * input_size


def rank_disjuncts(
    queries: Sequence[Query], db: Database
) -> list[Query]:
    """Order disjuncts cheapest-first for short-circuit evaluation.

    One ranking pass shares a distinct-count memo across disjuncts
    (they draw from the same shared variant relations) and orders the
    cost vector with a stable ``np.argsort`` — ties keep the disjunct
    enumeration order, exactly like the ``sorted`` it replaces.
    """
    if len(queries) < 2:
        return list(queries)
    cache: StatsCache = {}
    costs = np.fromiter(
        (estimate_evaluation_cost(q, db, cache) for q in queries),
        dtype=np.float64,
        count=len(queries),
    )
    return [queries[i] for i in np.argsort(costs, kind="stable")]
