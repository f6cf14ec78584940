"""Width-driven cost-based optimizer — the one place a strategy is chosen.

Each disjunct of a compiled program is planned independently (the
Carmeli–Kröll per-disjunct view of UCQs); a Query AST is planned as the
filter-less ``EXISTS`` disjunct it lowers to
(:func:`repro.sql.rewrite.lower_query`).  The optimizer combines

* **cardinality/selectivity statistics** — per-relation sizes and
  per-column distinct counts via
  :func:`repro.engine.statistics.distinct_count`, discounted by
  pushed-down scan filters, and
* **the paper's width measures** — ``ijw``/``subw``/``fhtw`` from
  :func:`repro.widths.ij_width_report`, which bound the forward
  reduction at ``O(N^ijw polylog N)``

into one cost per candidate strategy:

* ``naive``     — brute-force backtracking, cost ≈ ∏ |R_i|;
* ``sweep``     — binary plane sweep, cost ≈ N log N (Boolean heads on
  two atoms sharing exactly one interval variable);
* ``reduction`` — the forward reduction, cost ≈ C · #EJ · N^max(1,ijw)
  · log² N;
* ``filtered``  — witness enumeration with residual predicates, forced
  when the disjunct carries predicates the engine cannot express
  (``INSIDE``/``CONTAINS``, same-alias comparisons).

The choice itself needs statistics only (see :func:`plan_disjunct`), so
the width report — data-independent, memoized per query structure — is
paid when a plan's prices are first read, not to decide.  No EJ method
is chosen here either: a reduction's disjuncts are planned where they
run, per structure and head, by :func:`repro.engine.ej.plan_ej`
(Yannakakis when α-acyclic, else generic iff ``fhtw >= ρ*`` of what the
head enumerates, else decomposition); EXPLAIN's ``ej_method`` only
*reports* what that one rule gives the width report's class
representatives.

``explain_program`` renders the whole decision — per disjunct: the
canonical SQL, the lowered query, widths, candidate costs, the chosen
strategy and why — as a JSON-safe dict plus a text view for the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.core.session import DEFAULT_NAIVE_BUDGET, canonical_form
from repro.core.sweep import single_shared_interval_variable
from repro.engine.ej import plan_ej
from repro.engine.relation import Database
from repro.engine.statistics import (
    StatsCache,
    distinct_count,
    estimate_join_cardinality,
)
from repro.hypergraph import Hypergraph
from repro.queries import Query
from repro.widths import ij_width_report

from .ast import HEAD_COUNT, HEAD_EXISTS
from .rewrite import OP_EQ, CompiledDisjunct, CompiledProgram, ConstRef

#: Constant factor charged to the reduction pipeline: it pays for
#: segment-tree construction, variant expansion and per-disjunct EJ
#: evaluation before its asymptotics win.
REDUCTION_OVERHEAD = 24.0

#: Skip the exponential exact subw search above this variable count;
#: the report then bounds subw by fhtw, which is still sound for costs.
SUBW_VARIABLE_LIMIT = 8

#: Width reports by the lowered query's canonical form.  Widths depend
#: on the query's structure alone — not on data, variable names or atom
#: order — and the report is the expensive part of a plan (milliseconds
#: for a triangle, seconds for a 4-clique), so it is computed once per
#: structure per process and a re-plan after a mutation re-reads
#: statistics only.  Beside the widths: per SQL head, the EJ methods of
#: the report's class representatives.
_width_cache: dict[tuple, tuple[dict[str, float], dict[str, str]]] = {}


def _ej_methods(query: Query, representatives: list[Hypergraph], head: str) -> str:
    """The ``+``-joined methods :func:`plan_ej` gives the reduced
    disjunct classes of ``query`` for ``head``.  The representatives are
    singleton-free, which is all the Boolean head enumerates; a
    ``COUNT(*)`` enumerates every column, so each atom regains the
    private one it carries — its provenance id (any interval variable)
    or an unshared point variable."""
    private, ej_head = {}, "boolean"
    if head == HEAD_COUNT:
        ej_head = "count"
        private = {
            atom.label: {("private", atom.label)}
            for atom in query.atoms
            if any(
                v.is_interval or len(query.atoms_containing(v.name)) == 1
                for v in atom.variables
            )
        }
    methods = set()
    for h in representatives:
        edges = h.edges
        for label, column in private.items():
            edges[label] = edges.get(label, frozenset()) | column
        methods.add(plan_ej(Hypergraph(edges), ej_head).method)
    return "+".join(sorted(methods))


def query_widths(query: Query) -> tuple[dict[str, float], dict[str, str]]:
    """The paper's width measures of ``query`` and, per SQL head, its
    disjuncts' EJ methods (memoized, see :data:`_width_cache`)."""
    key = canonical_form(query).key
    entry = _width_cache.get(key)
    if entry is None:
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
        representatives = [c.representative for c in report.classes]
        entry = _width_cache[key] = widths, {
            head: _ej_methods(query, representatives, head)
            for head in (HEAD_EXISTS, HEAD_COUNT)
        }
    return entry


@dataclass
class DisjunctPlan:
    """The optimizer's verdict for one disjunct.

    The strategy is decided from statistics alone (see
    :func:`plan_disjunct`); what the width report prices — ``widths``,
    ``ej_method``, ``candidates``, ``cost``, ``reason`` — is computed
    when first read, i.e. by an EXPLAIN, never for running a plan.
    """

    strategy: str  # naive | sweep | reduction | filtered
    query: Query
    head: str
    sweepable: bool
    brute: float
    naive_budget: float
    input_size: float
    estimated_rows: float
    filters: tuple[str, ...] = ()
    residuals: tuple[str, ...] = ()

    @cached_property
    def widths(self) -> dict[str, float]:
        return dict(query_widths(self.query)[0])  # the memo's own dict stays private

    @property
    def ej_method(self) -> str:
        """What a reduction of this disjunct runs its EJ disjuncts with,
        e.g. ``yannakakis`` or ``generic+yannakakis`` — a report, not an
        instruction (see :func:`_ej_methods`)."""
        return query_widths(self.query)[1][self.head]

    @property
    def candidates(self) -> dict[str, float]:
        if self.strategy == "filtered":
            return {"filtered": self.brute}
        total, widths = self.input_size, self.widths
        log_n = math.log2(total + 2.0)
        candidates = {"naive": self.brute}
        if self.sweepable:
            candidates["sweep"] = total * log_n + total
        candidates["reduction"] = (
            REDUCTION_OVERHEAD
            * max(widths["ej_disjuncts"], 1.0)
            * (max(total, 2.0) ** max(widths["ijw"], 1.0))
            * log_n**2
        )
        return candidates

    @property
    def cost(self) -> float:
        return self.candidates[self.strategy]

    @property
    def reason(self) -> str:
        if self.strategy == "filtered":
            return (
                f"residual predicates ({', '.join(self.residuals)}) force "
                "witness enumeration with post-join filters"
            )
        if self.strategy == "naive":
            return (
                f"brute-force product {self.brute:.0f} is the cheapest "
                f"candidate (budget {self.naive_budget:.0f})"
            )
        if self.strategy == "sweep":
            return (
                "binary join on a single shared interval variable: plane sweep "
                f"is O(N log N), N={self.input_size:.0f}"
            )
        widths = self.widths
        return (
            f"forward reduction at O(N^ijw polylog N) with ijw="
            f"{widths['ijw']:.1f} beats the {self.brute:.0f}-row brute force; "
            f"{int(widths['ej_disjuncts'])} EJ disjunct(s) via {self.ej_method} "
            f"(max fhtw {widths['max_fhtw']:.1f})"
        )


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


def plan_disjunct(
    disjunct: CompiledDisjunct,
    db: Database,
    naive_budget: float = DEFAULT_NAIVE_BUDGET,
    cache: Optional[StatsCache] = None,
) -> DisjunctPlan:
    """Pick the cheapest candidate strategy, from statistics alone.

    Residual predicates force ``filtered``; at or under the brute-force
    budget ``naive`` wins outright; above it the asymptotically-aware
    candidates compete — and no width can change the winner: whenever
    ``sweep`` is a candidate its ``N log N + N`` is below the
    reduction's ``24 · #EJ · N^max(1, ijw) · log² N``, and otherwise the
    reduction stands alone.
    """
    cache = {} if cache is None else cache
    query = disjunct.query
    sizes = _effective_sizes(disjunct, db, cache)
    brute = 1.0
    for size in sizes.values():
        brute *= max(size, 1.0)
        if brute > 1e15:
            break
    sweepable = (
        disjunct.select.head == HEAD_EXISTS
        and single_shared_interval_variable(query) is not None
    )
    if disjunct.residuals:
        strategy = "filtered"
    elif brute <= naive_budget:
        strategy = "naive"
    elif sweepable:
        strategy = "sweep"
    else:
        strategy = "reduction"
    return DisjunctPlan(
        strategy=strategy,
        query=query,
        head=disjunct.select.head,
        sweepable=sweepable,
        brute=brute,
        naive_budget=naive_budget,
        input_size=sum(sizes.values()),
        estimated_rows=estimate_join_cardinality(query, db, cache, sizes),
        filters=_filter_texts(disjunct),
        residuals=tuple(r.unparse() for r in disjunct.residuals),
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
