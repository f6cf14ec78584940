"""Execution of compiled SQL programs.

``run_program`` evaluates each disjunct with its optimizer-chosen
strategy and folds the answers through the program head (``EXISTS`` →
or, ``COUNT(*)`` → sum, UNION ALL bag semantics).  Pure join disjuncts
run through the :class:`~repro.core.session.QuerySession` fast path —
answer-cached, reduction-cached, delta-patchable, shared across
isomorphic queries like every other artifact.  Filtered disjuncts
(pushed-down scans and/or residual predicates) run against a per-alias
filtered database built by
:meth:`~repro.sql.rewrite.CompiledDisjunct.execution_target`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.engine.relation import Database

from .ast import HEAD_COUNT
from .cost import DisjunctPlan, plan_disjunct
from .rewrite import CompiledDisjunct, CompiledProgram, compile_sql

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import QuerySession

Answer = Union[bool, int]


def run_disjunct(
    disjunct: CompiledDisjunct,
    session: "QuerySession",
    plan: Optional[DisjunctPlan] = None,
) -> Answer:
    """Evaluate one disjunct with its planned strategy."""
    from repro.core import (
        count_ij,
        evaluate_ij,
        naive_count,
        naive_evaluate,
        naive_witnesses,
    )

    if plan is None:
        plan = plan_disjunct(disjunct, session.db)
    counting = disjunct.select.head == HEAD_COUNT

    if plan.strategy == "filtered" or disjunct.residuals:
        query, db = disjunct.execution_target(session.db)
        survivors = (
            w
            for w in naive_witnesses(query, db)
            if all(r.holds(w) for r in disjunct.residuals)
        )
        if counting:
            return sum(1 for _ in survivors)
        return next(iter(survivors), None) is not None

    if disjunct.scan_filters:
        # Scan-filtered: the engine runs on an ad-hoc filtered database,
        # outside the session caches (its relations are per-call).
        query, db = disjunct.execution_target(session.db)
        if plan.strategy == "naive":
            return naive_count(query, db) if counting else naive_evaluate(query, db)
        if plan.strategy == "sweep" and not counting:
            from repro.core.planner import single_shared_interval_variable
            from repro.core.sweep import sweep_evaluate_binary

            shared = single_shared_interval_variable(query)
            if shared is not None:
                return sweep_evaluate_binary(query, db, shared)
        return count_ij(query, db) if counting else evaluate_ij(query, db)

    # Pure join: the session-cached path.
    if counting:
        return session.count(
            disjunct.query, ej_method=plan.ej_method, strategy=plan.strategy
        )
    return session.evaluate(
        disjunct.query, ej_method=plan.ej_method, strategy=plan.strategy
    )


def _plans_for(program: CompiledProgram, session: "QuerySession") -> list[DisjunctPlan]:
    planner = getattr(session, "sql_plan", None)
    if planner is not None:
        return [planner(d) for d in program.disjuncts]
    return [plan_disjunct(d, session.db) for d in program.disjuncts]


def run_program(program: CompiledProgram, session: "QuerySession") -> Answer:
    """Evaluate a compiled program through a session."""
    plans = _plans_for(program, session)
    answers = [
        run_disjunct(d, session, plan) for d, plan in zip(program.disjuncts, plans)
    ]
    return program.combine(answers)


def naive_program(program: CompiledProgram, db: Database) -> Answer:
    """Strategy-free oracle: every disjunct by witness enumeration over
    its execution target, residuals applied post-join.  This is the
    differential baseline for the test suite and ``repro sql --check`` —
    it never consults the optimizer or the session caches."""
    from repro.core import naive_witnesses

    answers: list[Answer] = []
    for disjunct in program.disjuncts:
        query, target = disjunct.execution_target(db)
        survivors = (
            w
            for w in naive_witnesses(query, target)
            if all(r.holds(w) for r in disjunct.residuals)
        )
        if disjunct.select.head == HEAD_COUNT:
            answers.append(sum(1 for _ in survivors))
        else:
            answers.append(next(iter(survivors), None) is not None)
    return program.combine(answers)


def run_sql(text: str, session: "QuerySession") -> Answer:
    """Compile ``text`` against the session's database and evaluate."""
    return run_program(compile_sql(text, session.db), session)


def explain_data(text: str, db: Database, session: "QuerySession | None" = None) -> dict:
    """Compile and plan ``text``, returning the EXPLAIN payload."""
    from .cost import explain_program

    program = compile_sql(text, db)
    plans = None
    if session is not None:
        plans = _plans_for(program, session)
    return explain_program(program, db, plans)
