"""The IJ evaluation engine — the paper's main algorithm (Theorem 4.15).

``evaluate_ij`` runs the full forward reduction, then evaluates the EJ
disjuncts over the shared transformed database with the structurally
right method per disjunct and head (:func:`repro.engine.ej.plan_ej`:
Yannakakis when α-acyclic; otherwise one flat generic join iff
``fhtw >= ρ*`` over the variables the head enumerates, the fhtw-optimal
decomposition iff ``fhtw < ρ*``), short-circuiting on the first true
disjunct.  Total time ``O(N^ijw(H) · polylog N)``.

``count_ij`` uses the Appendix G disjoint rewriting plus provenance
columns so that satisfying tuple combinations are counted exactly once.
Both heads plan the same singleton-free core (the ids are summed out),
so a cyclic disjunct is one generic join for either; only the ``full``
head, which enumerates the ids, decomposes.

``witnesses_ij`` enumerates satisfying original tuple combinations by
mapping provenance ids back through the reduction.
"""

from __future__ import annotations

from typing import Iterator

from ..engine.ej import evaluate_ej_full
from ..engine.relation import Database
from ..queries.query import Query
from ..reduction.disjoint import shift_distinct_left
from ..reduction.forward import ForwardReductionResult, forward_reduce
from .disjunct_eval import count_disjunction, evaluate_disjunction


def evaluate_ij(query: Query, db: Database) -> bool:
    """Boolean evaluation of an IJ (or EIJ) query via the forward
    reduction (Theorem 4.13 + Theorem 4.15).  The disjunction itself is
    evaluated by the shared :mod:`repro.core.disjunct_eval` path."""
    result = forward_reduce(query, db)
    return evaluate_disjunction(result)


def count_ij(query: Query, db: Database) -> int:
    """Exact number of satisfying tuple combinations.

    Pipeline: G.1 distinct-left shift -> disjoint forward reduction with
    provenance ids -> sum of per-disjunct assignment counts.  The OT
    constraint makes the disjuncts pairwise disjoint (Lemma G.2), and
    provenance ids put EJ assignments in bijection with original tuple
    combinations.
    """
    shifted = shift_distinct_left(query, db)
    result = forward_reduce(query, shifted, disjoint=True, provenance=True)
    return count_disjunction(result)


def witnesses_ij(
    query: Query, db: Database, limit: int | None = None
) -> Iterator[dict[str, tuple]]:
    """Enumerate satisfying tuple combinations (maps atom label -> tuple
    of the *original* database), each exactly once."""
    shifted = shift_distinct_left(query, db)
    result = forward_reduce(query, shifted, disjoint=True, provenance=True)
    return witnesses_from_reduction(result, limit)


def witnesses_from_reduction(
    result: ForwardReductionResult, limit: int | None = None
) -> Iterator[dict[str, tuple]]:
    """Enumerate the witnesses of ``result.original`` given its (possibly
    cached, possibly patched) disjoint provenance reduction over the
    G.1-shifted database.

    Provenance ids index the reduction's own ``tuple_order`` (which
    holds the *shifted* tuples), so id alignment is exact by
    construction; the artifact's rank table then unshifts each tuple by
    arithmetic (:meth:`ForwardReductionResult.source_tuple`).
    """
    query = result.original
    # Atoms with interval variables carry a provenance id; point-only
    # atoms are identified by their variable values directly (every
    # column of a point atom is a variable, so the projection of the
    # assignment onto those variables IS the satisfying tuple).
    id_columns: list[str] = []
    point_columns: list[str] = []
    for atom in query.atoms:
        if any(v.is_interval for v in atom.variables):
            id_columns.append(f"__id_{atom.label}")
        else:
            for name in atom.variable_names:
                if name not in point_columns:
                    point_columns.append(name)
    if limit is not None and limit <= 0:
        return
    emitted = 0
    for encoded in result.encoded_queries:
        assignments = evaluate_ej_full(
            encoded.query, result.database, output=id_columns + point_columns
        )
        for row in assignments.tuples:
            witness: dict[str, tuple] = {}
            for atom in query.atoms:
                column = f"__id_{atom.label}"
                if column in assignments.schema:
                    tuple_id = row[assignments.schema.index(column)]
                    witness[atom.label] = result.source_tuple(atom, tuple_id)
                else:
                    witness[atom.label] = tuple(
                        row[assignments.schema.index(name)]
                        for name in atom.variable_names
                    )
            yield witness
            emitted += 1
            if limit is not None and emitted >= limit:
                return


class IntersectionJoinEngine:
    """Object API bundling reduction reuse across evaluations.

    Reduces once per database: every call routes through the database's
    shared :class:`~repro.core.session.QuerySession`, which memoizes the
    forward reduction (keyed by the query's canonical form) and patches
    or drops it when a relation it reads changes.  Two ``evaluate``
    calls on the same unchanged database run ``forward_reduce`` exactly
    once; so do two engines whose queries are isomorphic.
    """

    def __init__(self, query: Query):
        self.query = query

    @staticmethod
    def _session(db: Database):
        from .session import QuerySession

        return QuerySession.for_database(db)

    def evaluate(self, db: Database) -> bool:
        return self._session(db).evaluate(self.query, strategy="reduction")

    def count(self, db: Database) -> int:
        return self._session(db).count(self.query)

    def witnesses(self, db: Database, limit: int | None = None):
        return self._session(db).witnesses(self.query, limit=limit)

    def reduction(self, db: Database) -> ForwardReductionResult:
        return self._session(db).reduction(self.query)
