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

from ..queries.query import Query
from .relation import Database, Relation

#: memo type a caller threads through its estimates: ``(relation name,
#: attribute) -> distinct count`` — for row-backed relations; a columnar
#: one memoizes its counts on its block.
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
    optimizer's filter-discounted scans).  A join over an empty atom is
    empty: the estimate is then 0.0."""
    if not query.atoms:
        return 0.0
    size_product = 1.0
    columns: dict[str, list[tuple[Relation, int]]] = {}
    for atom in query.atoms:
        relation = db[atom.relation]
        size = len(relation) if sizes is None else sizes[atom.label]
        if size == 0:
            return 0.0
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
    if query.is_alpha_acyclic:
        return float(input_size)
    blowup = estimate_join_cardinality(query, db, cache)
    return input_size + math.sqrt(max(blowup, 0.0)) + 10.0 * input_size


def rank_order(queries: Sequence[Query], db: Database) -> list[int]:
    """The indices of ``queries`` cheapest-first, for short-circuit
    evaluation.

    The disjuncts draw from the same shared variant relations, whose
    blocks memoize their distinct counts; a stable ``np.argsort`` of the
    costs keeps the disjunct enumeration order on ties.
    """
    if len(queries) < 2:
        return list(range(len(queries)))
    costs = [estimate_evaluation_cost(q, db) for q in queries]
    return np.argsort(np.array(costs, dtype=np.float64), kind="stable").tolist()
