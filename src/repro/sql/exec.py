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
from .cost import explain_program
from .rewrite import CompiledDisjunct, CompiledProgram, compile_sql

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


def run_disjunct(disjunct: CompiledDisjunct, session: QuerySession) -> Answer:
    """Evaluate one disjunct as the session's optimizer plans it."""
    if disjunct.residuals:
        return _enumerate(disjunct, session.db)
    strategy = session.sql_plan(disjunct).strategy
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
    """Evaluate a compiled program through a session."""
    return program.combine([run_disjunct(d, session) for d in program.disjuncts])


def naive_program(program: CompiledProgram, db: Database) -> Answer:
    """Strategy-free oracle: every disjunct by witness enumeration over
    its execution target, residuals applied post-join.  This is the
    differential baseline for the test suite and ``repro sql --check`` —
    it never consults the optimizer or the session caches."""
    return program.combine([_enumerate(d, db) for d in program.disjuncts])


def run_sql(text: str, session: QuerySession) -> Answer:
    """Compile ``text`` against the session's database and evaluate."""
    return run_program(compile_sql(text, session.db), session)


def explain_data(text: str, db: Database) -> dict:
    """Compile and plan ``text`` sessionless, returning the EXPLAIN
    payload."""
    return explain_program(compile_sql(text, db), db)
