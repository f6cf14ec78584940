"""repro.sql — a SQL front-end and a width-driven cost-based optimizer.

This package opens the engine (and, through the service protocol's
``sql``/``explain`` verbs, the whole router/shard tier) to clients that
speak queries as text instead of Python ASTs:

* :mod:`repro.sql.tokenizer` / :mod:`repro.sql.parser` — a tokenizer
  and recursive-descent parser for a small SQL dialect:
  ``SELECT COUNT(*)|EXISTS FROM R [AS r], ... [WHERE ...]`` with
  equality predicates, interval predicates (``r.t OVERLAPS s.t``,
  ``CONTAINS``, ``INSIDE`` for point-in-interval), and ``UNION``
  between disjuncts.  Every failure is a typed
  :class:`~repro.sql.errors.SqlError` carrying position + caret
  snippet;
* :mod:`repro.sql.rewrite` — pyMega-shaped rewrite passes (predicate
  normalization, selection pushdown, cartesian-to-theta-join) lowering
  the logical IR onto the engine's :class:`~repro.queries.query.Query`
  AST, with non-lowerable predicates kept as residual filters;
* :mod:`repro.sql.cost` — the repo's one planner: a per-disjunct
  cost-based optimizer combining cardinality statistics with the
  paper's width bounds (ijw/subw/fhtw) to choose naive / sweep /
  reduction / filtered execution, plus ``EXPLAIN`` rendering.  Query
  ASTs reach it through :func:`~repro.sql.rewrite.lower_query`;
* :mod:`repro.sql.exec` — execution through a
  :class:`~repro.core.session.QuerySession`, whose one strategy ladder
  runs every plan, so pure join disjuncts hit the cached,
  delta-patchable substrate.
"""

from .ast import HEAD_COUNT, HEAD_EXISTS, Program, SelectStmt
from .cost import DisjunctPlan, explain_program, plan_disjunct, render_explain
from .errors import SqlError
from .exec import naive_program, run_disjunct, run_program
from .parser import parse_sql
from .rewrite import CompiledDisjunct, CompiledProgram, Residual, compile_sql, lower_query
from .tokenizer import Token, tokenize

__all__ = [
    "HEAD_COUNT",
    "HEAD_EXISTS",
    "Program",
    "SelectStmt",
    "DisjunctPlan",
    "explain_program",
    "plan_disjunct",
    "render_explain",
    "SqlError",
    "naive_program",
    "run_disjunct",
    "run_program",
    "parse_sql",
    "CompiledDisjunct",
    "CompiledProgram",
    "Residual",
    "compile_sql",
    "lower_query",
    "Token",
    "tokenize",
]
