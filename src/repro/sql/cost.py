"""Width-driven cost-based optimizer for compiled SQL disjuncts.

Each disjunct of a compiled program is planned independently (the
Carmeli–Kröll per-disjunct view of UCQs): the optimizer combines

* **cardinality/selectivity statistics** — per-relation sizes and
  per-column distinct counts via
  :func:`repro.engine.statistics.distinct_count`, discounted by
  pushed-down scan filters, and
* **the paper's width measures** — ``ijw``/``subw``/``fhtw`` from
  :func:`repro.widths.ij_width_report`, which bound the forward
  reduction at ``O(N^ijw polylog N)`` and decide whether the reduced EJ
  disjuncts are Yannakakis-able (``fhtw <= 1``) or need generic join

into one cost per candidate strategy:

* ``naive``     — brute-force backtracking, cost ≈ ∏ |R_i|;
* ``sweep``     — binary plane sweep, cost ≈ N log N (Boolean heads on
  two atoms sharing exactly one interval variable);
* ``reduction`` — the forward reduction, cost ≈ C · #EJ · N^max(1,ijw)
  · log² N;
* ``filtered``  — witness enumeration with residual predicates, forced
  when the disjunct carries predicates the engine cannot express
  (``INSIDE``/``CONTAINS``, same-alias comparisons).

``explain_program`` renders the whole decision — per disjunct: the
canonical SQL, the lowered query, widths, candidate costs, the chosen
strategy and why — as a JSON-safe dict plus a text view for the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.relation import Database
from repro.engine.statistics import StatsCache, distinct_count
from repro.queries import Query

from .ast import HEAD_EXISTS
from .rewrite import OP_EQ, CompiledDisjunct, CompiledProgram, ConstRef, compile_sql

#: Constant factor charged to the reduction pipeline: it pays for
#: segment-tree construction, variant expansion and per-disjunct EJ
#: evaluation before its asymptotics win.
REDUCTION_OVERHEAD = 24.0

#: Brute-force budget mirroring :mod:`repro.core.planner`.
DEFAULT_NAIVE_BUDGET = 20_000.0

#: Skip the exponential exact subw search above this variable count;
#: the report then bounds subw by fhtw, which is still sound for costs.
SUBW_VARIABLE_LIMIT = 8


@dataclass
class DisjunctPlan:
    """The optimizer's verdict for one disjunct."""

    strategy: str  # naive | sweep | reduction | filtered
    ej_method: str  # yannakakis | generic
    cost: float
    candidates: dict[str, float]
    widths: dict[str, float]
    reason: str
    input_size: float
    estimated_rows: float
    filters: tuple[str, ...] = field(default_factory=tuple)
    residuals: tuple[str, ...] = field(default_factory=tuple)


def lowered_text(query: Query) -> str:
    """Render a lowered query in the engine's conjunction syntax."""
    return " ∧ ".join(
        f"{atom.relation}({', '.join(repr(v) for v in atom.variables)})"
        for atom in query.atoms
    )


def _filter_selectivity(
    disjunct: CompiledDisjunct,
    alias: str,
    db: Database,
    cache: StatsCache,
) -> float:
    """Estimated fraction of an alias's scan surviving its filters."""
    relation_name, _ = disjunct.tables[alias]
    relation = db[relation_name]
    selectivity = 1.0
    for residual in disjunct.scan_filters.get(alias, ()):
        if residual.op == OP_EQ and isinstance(residual.right, ConstRef):
            index = residual.left.index  # type: ignore[union-attr]
            attribute = relation.schema[index]
            selectivity /= max(distinct_count(relation, attribute, cache), 1)
        else:
            selectivity *= 0.5  # interval/containment filters: flat guess
    return selectivity


def _effective_sizes(
    disjunct: CompiledDisjunct, db: Database, cache: StatsCache
) -> dict[str, float]:
    sizes: dict[str, float] = {}
    for alias, (relation, _) in disjunct.tables.items():
        sizes[alias] = len(db[relation]) * _filter_selectivity(
            disjunct, alias, db, cache
        )
    return sizes


def _estimated_rows(
    disjunct: CompiledDisjunct,
    db: Database,
    sizes: dict[str, float],
    cache: StatsCache,
) -> float:
    """System-R style join cardinality over the lowered query, with
    distinct counts resolved positionally (variable names do not match
    real schemas)."""
    query = disjunct.query
    rows = 1.0
    for alias in disjunct.tables:
        rows *= max(sizes[alias], 1.0)
    occurrences: dict[str, list[tuple[str, int]]] = {}
    for atom in query.atoms:
        for index, variable in enumerate(atom.variables):
            occurrences.setdefault(variable.name, []).append((atom.label, index))
    for slots in occurrences.values():
        if len(slots) < 2:
            continue
        counts = sorted(
            (
                max(
                    distinct_count(
                        db[disjunct.tables[alias][0]],
                        db[disjunct.tables[alias][0]].schema[index],
                        cache,
                    ),
                    1,
                )
                for alias, index in slots
            ),
            reverse=True,
        )
        for count in counts[:-1]:
            rows /= count
    return rows


def plan_disjunct(
    disjunct: CompiledDisjunct,
    db: Database,
    naive_budget: float = DEFAULT_NAIVE_BUDGET,
    cache: Optional[StatsCache] = None,
) -> DisjunctPlan:
    """Cost every candidate strategy and pick the cheapest."""
    from repro.core.planner import single_shared_interval_variable
    from repro.widths import ij_width_report

    cache = {} if cache is None else cache
    query = disjunct.query
    sizes = _effective_sizes(disjunct, db, cache)
    total = sum(sizes.values())
    brute = 1.0
    for size in sizes.values():
        brute *= max(size, 1.0)
        if brute > 1e15:
            break
    report = ij_width_report(
        query.hypergraph(),
        interval_vertices=query.interval_variable_names(),
        compute_subw=len(query.variables) <= SUBW_VARIABLE_LIMIT,
    )
    widths = {
        "ijw": float(report.ijw),
        "max_fhtw": float(report.max_fhtw),
        "ej_disjuncts": float(report.num_ej_hypergraphs),
        "reduced": float(report.num_reduced),
    }
    ej_method = "yannakakis" if report.max_fhtw <= 1.0 else "generic"
    rows = _estimated_rows(disjunct, db, sizes, cache)
    log_n = math.log2(total + 2.0)

    if disjunct.residuals:
        candidates = {"filtered": brute}
        reason = (
            "residual predicates "
            f"({', '.join(r.unparse() for r in disjunct.residuals)}) force "
            "witness enumeration with post-join filters"
        )
        return DisjunctPlan(
            strategy="filtered",
            ej_method=ej_method,
            cost=brute,
            candidates=candidates,
            widths=widths,
            reason=reason,
            input_size=total,
            estimated_rows=rows,
            filters=_filter_texts(disjunct),
            residuals=tuple(r.unparse() for r in disjunct.residuals),
        )

    candidates: dict[str, float] = {"naive": brute}
    if disjunct.select.head == HEAD_EXISTS and single_shared_interval_variable(query):
        candidates["sweep"] = total * log_n + total
    candidates["reduction"] = (
        REDUCTION_OVERHEAD
        * max(widths["ej_disjuncts"], 1.0)
        * (max(total, 2.0) ** max(widths["ijw"], 1.0))
        * log_n**2
    )
    # Naive wins outright under the brute-force budget (the planner's
    # small-instance rule); above it, the asymptotically-aware
    # candidates compete on estimated cost.
    if brute <= naive_budget:
        strategy = "naive"
    else:
        asymptotic = {k: v for k, v in candidates.items() if k != "naive"}
        strategy = min(asymptotic, key=lambda k: (asymptotic[k], k))
    if strategy == "naive":
        reason = (
            f"brute-force product {brute:.0f} is the cheapest candidate "
            f"(budget {naive_budget:.0f})"
        )
    elif strategy == "sweep":
        reason = (
            "binary join on a single shared interval variable: plane sweep "
            f"is O(N log N), N={total:.0f}"
        )
    else:
        reason = (
            f"forward reduction at O(N^ijw polylog N) with ijw="
            f"{widths['ijw']:.1f} beats the {brute:.0f}-row brute force; "
            f"{int(widths['ej_disjuncts'])} EJ disjunct(s) via {ej_method} "
            f"(max fhtw {widths['max_fhtw']:.1f})"
        )
    return DisjunctPlan(
        strategy=strategy,
        ej_method=ej_method,
        cost=candidates[strategy],
        candidates=candidates,
        widths=widths,
        reason=reason,
        input_size=total,
        estimated_rows=rows,
        filters=_filter_texts(disjunct),
        residuals=(),
    )


def _filter_texts(disjunct: CompiledDisjunct) -> tuple[str, ...]:
    out = []
    for alias in disjunct.tables:
        for residual in disjunct.scan_filters.get(alias, ()):
            out.append(residual.unparse())
    return tuple(out)


def explain_program(
    program: CompiledProgram,
    db: Database,
    plans: Optional[list[DisjunctPlan]] = None,
) -> dict:
    """JSON-safe EXPLAIN payload for a compiled program."""
    cache: StatsCache = {}
    if plans is None:
        plans = [plan_disjunct(d, db, cache=cache) for d in program.disjuncts]
    return {
        "sql": program.sql,
        "head": program.head,
        "disjuncts": [
            {
                "sql": disjunct.sql,
                "lowered": lowered_text(disjunct.query),
                "strategy": plan.strategy,
                "ej_method": plan.ej_method,
                "cost": plan.cost,
                "candidates": dict(plan.candidates),
                "widths": dict(plan.widths),
                "input_size": plan.input_size,
                "estimated_rows": plan.estimated_rows,
                "scan_filters": list(plan.filters),
                "residuals": list(plan.residuals),
                "reason": plan.reason,
            }
            for disjunct, plan in zip(program.disjuncts, plans)
        ],
    }


def render_explain(data: dict) -> str:
    """Human-readable EXPLAIN text from :func:`explain_program` data."""
    head = "COUNT(*)" if data["head"] == "count" else "EXISTS"
    lines = [
        f"sql: {data['sql']}",
        f"head: {head}   disjuncts: {len(data['disjuncts'])}",
    ]
    for i, d in enumerate(data["disjuncts"], 1):
        widths = d["widths"]
        candidates = "  ".join(
            f"{name}={cost:.3g}" for name, cost in sorted(d["candidates"].items())
        )
        lines.append(f"-- disjunct {i}: {d['sql']}")
        lines.append(f"   lowered: {d['lowered']}")
        lines.append(
            f"   widths: ijw={widths['ijw']:.1f} max_fhtw={widths['max_fhtw']:.1f} "
            f"ej_disjuncts={int(widths['ej_disjuncts'])}"
        )
        lines.append(
            f"   input size: {d['input_size']:.0f}   "
            f"est. rows: {d['estimated_rows']:.1f}"
        )
        if d["scan_filters"]:
            lines.append(f"   scan filters: {', '.join(d['scan_filters'])}")
        if d["residuals"]:
            lines.append(f"   residuals: {', '.join(d['residuals'])}")
        lines.append(f"   candidates: {candidates}")
        lines.append(f"   chosen: {d['strategy']} ({d['reason']})")
    return "\n".join(lines)


def explain_sql(text: str, db: Database) -> str:
    """One-call EXPLAIN: compile ``text`` against ``db`` and render."""
    return render_explain(explain_program(compile_sql(text, db), db))
