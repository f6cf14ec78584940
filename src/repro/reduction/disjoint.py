"""Appendix G: disjointness machinery for exact counting.

Two pieces:

* :func:`shift_distinct_left` — the G.1 perturbation making intervals
  from different atoms have pairwise distinct left endpoints while
  preserving every intersection (hence the query answer), carried out
  on endpoint ranks instead of with a float epsilon;
* the ordered-tuple-set (OT) rewriting of Lemma G.2 is realised inside
  :mod:`repro.reduction.forward` via ``disjoint=True``: the part ``X_j``
  of the atom at permutation position ``j`` (``1 < j < k``) must be
  non-empty whenever the previous atom's label is larger, so each
  satisfying tuple combination is witnessed by exactly one disjunct.
"""

from __future__ import annotations

from ..engine.relation import Database, Relation
from ..intervals.endpoints import collect_endpoints
from ..intervals.interval import Interval
from ..queries.query import Query


def shifted_rows(query: Query, db: Database) -> list[dict[tuple, tuple]]:
    """Per atom of ``query`` (in order), the map *original tuple →
    G.1-shifted tuple* — the one place the shift is computed;
    :func:`shift_distinct_left` keeps the values, the witness
    enumeration inverts the map.

    The shift runs in **integer rank space**, so it is exact at any
    endpoint magnitude (a float epsilon rounds away past ``2**52``):
    with ``r(p)`` the rank of ``p`` among all distinct endpoints of the
    query's interval columns, atom ``i`` of ``n`` (1-based) sends
    ``[l, r]`` to ``[r(l)*(n+1) + i, r(r)*(n+1) + n]``.  Ranks preserve
    endpoint order and ``i <= n < n+1``, so ``x.l <= y.r`` holds before
    exactly when it holds after — every intersection is preserved — and
    left endpoints are ``i`` modulo ``n+1``: distinct across atoms.
    """
    if not query.is_self_join_free:
        raise ValueError(
            "the distinct-left-endpoint shift needs a self-join-free query"
        )
    interval_positions = [
        [idx for idx, v in enumerate(atom.variables) if v.is_interval]
        for atom in query.atoms
    ]
    endpoints = collect_endpoints(
        t[idx]
        for atom, positions in zip(query.atoms, interval_positions)
        for t in db[atom.relation].tuples
        for idx in positions
    )
    rank = {p: r for r, p in enumerate(sorted(set(endpoints)))}
    n = len(query.atoms)
    per_atom: list[dict[tuple, tuple]] = []
    for i, (atom, positions) in enumerate(
        zip(query.atoms, interval_positions), start=1
    ):
        rows: dict[tuple, tuple] = {}
        for t in db[atom.relation].tuples:
            row = list(t)
            for idx in positions:
                x = t[idx]
                row[idx] = Interval(
                    rank[x.left] * (n + 1) + i, rank[x.right] * (n + 1) + n
                )
            rows[t] = tuple(row)
        per_atom.append(rows)
    return per_atom


def shift_distinct_left(query: Query, db: Database) -> Database:
    """Return a database where the interval columns of the ``i``-th atom
    are shifted per Appendix G.1 (see :func:`shifted_rows`).

    Requires a self-join-free query (each atom owns its relation, as the
    shift differs per atom).  The transformed database has the same
    Boolean answer and the same set of satisfying tuple combinations.
    """
    shifted = Database()
    for atom, rows in zip(query.atoms, shifted_rows(query, db)):
        relation = db[atom.relation]
        shifted.add(Relation(relation.name, relation.schema, rows.values()))
    return shifted


def verify_distinct_left(query: Query, db: Database) -> bool:
    """Check the G.1 postcondition: left endpoints of interval values
    are pairwise distinct across different atoms."""
    seen: dict[float, int] = {}
    for i, atom in enumerate(query.atoms):
        relation = db[atom.relation]
        for idx, v in enumerate(atom.variables):
            if not v.is_interval:
                continue
            for t in relation.tuples:
                left = t[idx].left
                owner = seen.setdefault(left, i)
                if owner != i:
                    return False
    return True
