"""Appendix G: disjointness machinery for exact counting.

Two pieces:

* :func:`shift_distinct_left` — the G.1 perturbation making intervals
  from different atoms have pairwise distinct left endpoints while
  preserving every intersection (hence the query answer), carried out
  on endpoint ranks instead of with a float epsilon.  The
  :class:`ShiftedDatabase` it returns carries its rank table, which a
  reduction of it freezes into the artifact
  (:attr:`~repro.reduction.forward.ForwardReductionResult.ranks`), so
  the artifact takes its deltas and gives back its witnesses in source
  space;
* the ordered-tuple-set (OT) rewriting of Lemma G.2 is realised inside
  :mod:`repro.reduction.forward` via ``disjoint=True``: the part ``X_j``
  of the atom at permutation position ``j`` (``1 < j < k``) must be
  non-empty whenever the previous atom's label is larger, so each
  satisfying tuple combination is witnessed by exactly one disjunct.

One such artifact answers every head: the shift keeps every satisfying
combination, so ``EXISTS`` reads the disjoint disjunction as ``COUNT``
does.  A self-join query has no shift (its atoms share a relation), but
the unshifted disjoint reduction still answers ``EXISTS`` — a tie on
the largest left endpoint only adds witnesses — though not ``COUNT``.
"""

from __future__ import annotations

from ..engine.relation import Database, Relation
from ..intervals.endpoints import shift_row
from ..queries.query import Query


def require_self_join_free(query: Query) -> None:
    """Counting and witnesses need the shift, which differs per atom."""
    if not query.is_self_join_free:
        raise ValueError(
            "the distinct-left-endpoint shift needs a self-join-free query"
        )


class ShiftedDatabase(Database):
    """A G.1-shifted database and its rank table: the sorted distinct
    endpoints of the source's interval columns, which its own interval
    endpoints index."""

    def __init__(self, relations, ranks: tuple):
        super().__init__(relations)
        self.ranks = ranks


def shift_distinct_left(query: Query, db: Database) -> ShiftedDatabase:
    """``db`` with the interval columns of the ``i``-th atom of a
    self-join-free ``query`` shifted per Appendix G.1 (:func:`shift_row`),
    ranked among *all* distinct endpoints of the query's interval
    columns.  Same Boolean answer, same satisfying tuple combinations."""
    require_self_join_free(query)
    columns = [
        [idx for idx, v in enumerate(atom.variables) if v.is_interval]
        for atom in query.atoms
    ]
    relations = [db[atom.relation] for atom in query.atoms]
    ranks = tuple(sorted({
        p
        for relation, positions in zip(relations, columns)
        for t in relation.tuples
        for p in (e for idx in positions for e in (t[idx].left, t[idx].right))
    }))
    rank = {p: r for r, p in enumerate(ranks)}
    n = len(query.atoms)
    return ShiftedDatabase(
        [
            Relation(
                r.name,
                r.schema,
                [shift_row(t, positions, slot, n, rank) for t in r.tuples],
            )
            for slot, (r, positions) in enumerate(zip(relations, columns), 1)
        ],
        ranks,
    )
