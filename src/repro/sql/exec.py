"""Execution of compiled SQL programs.

``run_program`` evaluates each disjunct with its optimizer-chosen
strategy and folds the answers through the program head (``EXISTS`` →
or, ``COUNT(*)`` → sum, UNION ALL bag semantics).  Pure join disjuncts
run through the :class:`~repro.core.session.QuerySession` fast path —
answer-cached, reduction-cached, delta-patchable, shared across
isomorphic queries like every other artifact.  Filtered disjuncts
(pushed-down scans and/or residual predicates) run against a per-alias
filtered database built by
:meth:`~repro.sql.rewrite.CompiledDisjunct.execution_target`: residual
predicates by witness enumeration, scan filters alone through a
throw-away session over that database.
"""

from __future__ import annotations

from typing import Union

from repro.core.session import QuerySession
from repro.engine.relation import Database

from .ast import HEAD_COUNT
from .rewrite import CompiledDisjunct, CompiledProgram

Answer = Union[bool, int]


def _enumerate(disjunct: CompiledDisjunct, db: Database) -> Answer:
    """Witness enumeration over the disjunct's execution target,
    residuals applied post-join."""
    from repro.core import naive_witnesses

    query, target = disjunct.execution_target(db)
    survivors = (
        w
        for w in naive_witnesses(query, target)
        if all(r.holds(w) for r in disjunct.residuals)
    )
    if disjunct.select.head == HEAD_COUNT:
        return sum(1 for _ in survivors)
    return next(iter(survivors), None) is not None


def run_disjunct(
    disjunct: CompiledDisjunct, session: QuerySession, plan=None
) -> Answer:
    """Evaluate one disjunct as the session's optimizer (or ``plan``) plans it."""
    if disjunct.residuals:
        return _enumerate(disjunct, session.db)
    strategy = (plan or session.sql_plan(disjunct)).strategy
    query = disjunct.query
    if disjunct.scan_filters:
        # Scan-filtered: the plan runs on an ad-hoc filtered database,
        # outside the session's caches (its relations are per-call) —
        # a throw-away session over it runs the same rungs.
        query, db = disjunct.execution_target(session.db)
        session = QuerySession(db)
    run = session.count if disjunct.select.head == HEAD_COUNT else session.evaluate
    return run(query, strategy=strategy)


def run_program(program: CompiledProgram, session: QuerySession) -> Answer:
    """Evaluate a compiled program through a session, every disjunct
    planned before any runs (a plan can raise ``SqlError``)."""
    plans = [None if d.residuals else session.sql_plan(d) for d in program.disjuncts]
    return program.combine(
        [run_disjunct(d, session, p) for d, p in zip(program.disjuncts, plans)]
    )


def naive_program(program: CompiledProgram, db: Database) -> Answer:
    """Strategy-free oracle: every disjunct by witness enumeration over
    its execution target, residuals applied post-join.  This is the
    differential baseline for the test suite and ``repro sql --check`` —
    it never consults the optimizer or the session caches."""
    return program.combine([_enumerate(d, db) for d in program.disjuncts])
