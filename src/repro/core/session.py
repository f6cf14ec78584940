"""Reduction-caching query sessions with batched execution.

The Theorem 4.15 pipeline pays essentially all of its cost in the
forward reduction: building the transformed database ``D~`` dominates,
while the EJ disjuncts evaluated over it are comparatively cheap.  That
one-time cost is exactly what the paper amortises — ``D~`` is computed
*once per database* and then serves every disjunct — and, in a serving
system, every later query that is isomorphic to one already reduced
(compare the enumeration-amortisation framing of Carmeli & Kröll for
unions of conjunctive queries).

A :class:`QuerySession` pins one :class:`~repro.engine.relation.Database`
and makes the amortisation explicit:

* freshness comes **from the database** — relation versions and the
  change log say what changed (see :class:`QuerySession`) — and a
  mutation invalidates only the cached artifacts whose query *touches a
  changed relation*: everything else stays warm;
* ``forward_reduce`` results are **memoized** keyed by the query's
  canonical form and the ``disjoint``/``provenance`` flags, and — when
  the session is given a ``cache_dir`` — **persisted** to a
  content-addressed on-disk :class:`~repro.core.reduction_cache.ReductionCache`
  shared across processes and workers;
* queries are **canonicalized** (variable renaming + atom reordering,
  cross-checked against :mod:`repro.hypergraph.isomorphism`), so
  isomorphic queries share one reduction;
* optimizer plans (:func:`repro.sql.cost.plan_disjunct` — the one
  planner, which Query ASTs reach through
  :func:`repro.sql.rewrite.lower_query`) and Boolean / count answers are
  memoized under the same keys (the answer cache is LRU-bounded), so a
  batch whose members share a reduction also shares its short-circuit
  outcome.

``evaluate_many`` / ``count_many`` batch-execute a list of queries: the
batch is grouped by canonical form, one reduction (and one answer) is
computed per group, and every member receives it.
"""

from __future__ import annotations

import os
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import permutations, product
from math import factorial
from statistics import median
from time import perf_counter
from typing import Iterator, Literal, NamedTuple, Sequence

from ..engine.relation import Database, Delta, Relation
from ..hypergraph.isomorphism import structure_hash
from ..queries.query import Atom, Query, Variable
from ..reduction.disjoint import shift_distinct_left
from ..reduction.forward import (
    DomainChanged,
    ForwardReductionResult,
    forward_reduce,
)
from .baselines import naive_count, naive_evaluate
from .disjunct_eval import count_disjunction, evaluate_disjunction
from .reduction_cache import (
    ReductionCache,
    database_digests,
    query_content_key,
    reduction_key,
)
from .sweep import single_shared_interval_variable, sweep_evaluate_binary

__all__ = [
    "AdmissionController",
    "CanonicalForm",
    "QuerySession",
    "SessionStats",
    "canonical_form",
    "execute_sql",
    "explain",
    "explain_sql",
]

Strategy = Literal["auto", "naive", "sweep", "reduction"]

#: Brute-force budget: at or under this many candidate witnesses
#: (∏ |R_i|) the optimizer plans naive backtracking.
DEFAULT_NAIVE_BUDGET = 20_000.0


# ----------------------------------------------------------------------
# query canonicalization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """A query's canonical representative.

    ``key`` is equal for two queries exactly when one maps onto the
    other by renaming variables and reordering atoms while preserving
    each atom's relation and argument positions — the condition under
    which they share a forward reduction *and* an answer.  ``query`` is
    the canonical representative actually evaluated; ``label_map``
    sends its canonical atom labels back to the original query's labels
    (needed to relabel witnesses).
    """

    key: tuple
    query: Query
    label_map: tuple[tuple[str, str], ...]

    def relabel_witness(self, witness: dict[str, tuple]) -> dict[str, tuple]:
        back = dict(self.label_map)
        return {back[label]: value for label, value in witness.items()}


#: Above this many candidate atom orders the exact minimisation is
#: abandoned and the query becomes its own (unshared) canonical form.
_MAX_CANDIDATES = 40_320

#: Canonicalization memo.  LRU-bounded: recomputation is pure and cheap
#: relative to a reduction, but a hot serving loop re-canonicalizes the
#: same working set over and over — so eviction drops the *least
#: recently used* entry instead of the old drop-wholesale policy (which
#: emptied the memo exactly when it was fullest, i.e. busiest).
_CANON_CACHE_MAX = 4096
_canon_cache: OrderedDict[Query, CanonicalForm] = OrderedDict()


def _canon_cache_put(query: Query, form: CanonicalForm) -> None:
    while len(_canon_cache) >= _CANON_CACHE_MAX:
        _canon_cache.popitem(last=False)
    _canon_cache[query] = form


def _atom_signature(atom: Atom) -> tuple:
    return (
        atom.relation,
        len(atom.variables),
        tuple(v.is_interval for v in atom.variables),
    )


def _serialize(order: Sequence[Atom]) -> tuple[tuple, dict[str, int]]:
    """Relation/position serialization of the atoms in ``order``, with
    variables numbered by first occurrence."""
    var_ids: dict[str, int] = {}
    rows = []
    for atom in order:
        row = []
        for v in atom.variables:
            idx = var_ids.setdefault(v.name, len(var_ids))
            row.append((idx, v.is_interval))
        rows.append((atom.relation, tuple(row)))
    return tuple(rows), var_ids


def canonical_form(query: Query) -> CanonicalForm:
    """Canonicalize ``query``: try every structure-preserving atom order
    (atoms are first bucketed by ``(relation, arity, interval pattern)``,
    an isomorphism invariant, so only same-bucket permutations are
    explored) and keep the lexicographically least serialization.  The
    WL ``structure_hash`` of the query hypergraph is folded into the key
    as a cross-check against :mod:`repro.hypergraph.isomorphism`."""
    cached = _canon_cache.get(query)
    if cached is not None:
        _canon_cache.move_to_end(query)
        return cached

    buckets: dict[tuple, list[Atom]] = {}
    for atom in query.atoms:
        buckets.setdefault(_atom_signature(atom), []).append(atom)
    ordered_groups = [buckets[sig] for sig in sorted(buckets)]

    candidates = 1
    for group in ordered_groups:
        candidates *= factorial(len(group))
    wl = structure_hash(query.hypergraph())
    if candidates > _MAX_CANDIDATES:
        # opaque form: correct (never conflates queries), never shared
        serialization, _ = _serialize(query.atoms)
        labels = tuple((a.label, a.label) for a in query.atoms)
        form = CanonicalForm(
            ("opaque", wl, tuple(a.label for a in query.atoms), serialization),
            query,
            labels,
        )
        _canon_cache_put(query, form)
        return form

    best: tuple | None = None
    best_order: list[Atom] = []
    best_vars: dict[str, int] = {}
    for combo in product(*(permutations(g) for g in ordered_groups)):
        order = [atom for group in combo for atom in group]
        serialization, var_ids = _serialize(order)
        if best is None or serialization < best:
            best = serialization
            best_order = order
            best_vars = var_ids

    atoms = tuple(
        Atom(
            f"a{i}",
            atom.relation,
            tuple(
                Variable(f"v{best_vars[v.name]}", v.is_interval)
                for v in atom.variables
            ),
        )
        for i, atom in enumerate(best_order)
    )
    form = CanonicalForm(
        ("canon", wl, best),
        Query(atoms, name="canon"),
        tuple((f"a{i}", atom.label) for i, atom in enumerate(best_order)),
    )
    _canon_cache_put(query, form)
    return form


# ----------------------------------------------------------------------
# adaptive answer-cache admission
# ----------------------------------------------------------------------


class AdmissionController:
    """Adaptive cost floor for the answer cache.

    The *cost* of an answer is
    the number of input tuples its reduction reads — the reduction runs
    in ``O(N polylog N)`` of exactly this ``N``, so cost is a latency
    proxy — and the pressure signal is eviction churn relative to cache
    hits.  The controller maintains a floor below which answers are
    denied slots:

    * during the **warmup** (the first ``warmup`` admissions) everything
      is admitted and only observed, so small workloads — unit tests,
      one-shot CLI runs — never activate the policy at all;
    * when a full observation window shows **churn** (more evictions
      than hits: the cache is thrashing), the floor rises to the median
      recently-admitted cost — the cheap half of the working set stops
      competing for slots that expensive answers need;
    * the floor **decays** again on every calm window, and immediately
      on a *readmission* (a previously rejected answer is requested
      again, i.e. the rejection caused a recomputation) — mistaken
      strictness heals instead of ratcheting.
    """

    def __init__(
        self,
        warmup: int = 512,
        window: int = 64,
        decay: float = 0.5,
        rejected_limit: int = 1024,
    ):
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be strictly between 0 and 1")
        self.warmup = warmup
        self.window = window
        self.decay = decay
        self.floor = 0.0
        self.admitted = 0
        self.raises = 0          # windows that tightened the floor
        self.readmissions = 0    # rejected answers requested again
        self._costs: deque[float] = deque(maxlen=window)
        self._window_hits = 0
        self._window_evictions = 0
        self._window_events = 0
        # rejected-key memory (LRU-bounded): how readmissions are seen
        self._rejected: OrderedDict[tuple, bool] = OrderedDict()
        self._rejected_limit = rejected_limit

    def admit(self, cost: float) -> bool:
        """Whether an answer of ``cost`` earns a cache slot now."""
        if self.admitted >= self.warmup and cost < self.floor:
            return False
        self.admitted += 1
        self._costs.append(float(cost))
        return True

    def note_hit(self) -> None:
        self._window_hits += 1
        self._tick()

    def note_eviction(self) -> None:
        self._window_evictions += 1
        self._tick()

    def note_rejected(self, key: tuple) -> None:
        self._rejected[key] = True
        while len(self._rejected) > self._rejected_limit:
            self._rejected.popitem(last=False)

    def note_miss(self, key: tuple) -> None:
        """A cache miss: if this key was previously denied a slot, the
        denial just cost a recomputation — relax the floor."""
        if self._rejected.pop(key, None) is None:
            return
        self.readmissions += 1
        self._relax()

    def _relax(self) -> None:
        self.floor *= self.decay
        if self.floor < 1.0:
            self.floor = 0.0

    def _tick(self) -> None:
        self._window_events += 1
        if self._window_events < self.window:
            return
        if self._window_evictions > self._window_hits and self._costs:
            raised = float(median(self._costs))
            if raised > self.floor:
                self.floor = raised
                self.raises += 1
        else:
            self._relax()
        self._window_events = 0
        self._window_hits = 0
        self._window_evictions = 0


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------


#: The phases a session spends its wall time in, as surfaced by the CLI
#: ``--profile`` flag: query canonicalization, forward reduction
#: (including the Appendix G shift and any delta patching), disjunct /
#: naive / sweep evaluation, and persistent-cache I/O.
PROFILE_PHASES = ("canonicalize", "reduce", "evaluate", "cache_io")


@dataclass
class SessionStats:
    """Cache accounting for one session."""

    reductions: int = 0        # forward reductions actually computed
    hits: int = 0              # answers served from cache
    misses: int = 0            # answers computed
    invalidations: int = 0     # database mutations detected
    persistent_hits: int = 0   # reductions loaded from the on-disk cache
    evictions: int = 0         # answer-cache entries dropped by the LRU bound
    delta_patches: int = 0     # deltas applied to cached reductions in place
    admission_rejects: int = 0  # answers denied a cache slot (too cheap)
    admission_raises: int = 0   # adaptive-floor tightenings (churn windows)
    admission_readmissions: int = 0  # rejected answers requested again
    sql_plan_hits: int = 0     # optimizer plans served from the plan store
    #: accumulated wall seconds per phase — the built-in flame-sketch
    #: behind ``repro evaluate --profile``
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in PROFILE_PHASES}
    )

    def as_dict(self) -> dict[str, int]:
        return {
            "reductions": self.reductions,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "persistent_hits": self.persistent_hits,
            "evictions": self.evictions,
            "delta_patches": self.delta_patches,
            "admission_rejects": self.admission_rejects,
            "admission_raises": self.admission_raises,
            "admission_readmissions": self.admission_readmissions,
            "sql_plan_hits": self.sql_plan_hits,
        }

    def profile(self) -> dict[str, float]:
        """Per-phase wall seconds accumulated so far (a copy)."""
        return dict(self.phase_seconds)


#: Pipeline tags of :func:`~repro.core.reduction_cache.reduction_key`:
#: the plain Theorem 4.15 reduction, and the Appendix G counting /
#: witness pipeline (disjoint provenance reduction over the rank-shifted
#: database).
_PLAIN = "plain"
_COUNTING = "disjoint-ranked"


class _Reduction(NamedTuple):
    """One memoized forward reduction with what invalidating and
    re-persisting it needs."""

    result: ForwardReductionResult
    deps: frozenset[str]
    disjoint: bool
    provenance: bool
    pipeline: str


class QuerySession:
    """Cached query evaluation over one pinned database.

    All artifacts — reductions, plans, per-disjunct EJ outcomes and
    answers — are keyed by the query's canonical form, so isomorphic
    queries (same structure up to variable renaming and atom reordering
    over the same relations) share one reduction.  Every public call
    first compares the ``(relation object, version)`` pairs it last
    saw with the database's current ones — O(#relations), no tuple
    read, no digest; a mutation invalidates exactly the artifacts whose
    query references a changed relation, so answers never go stale and
    untouched queries stay warm.  A changed relation's cached
    reductions are *patched* when the change log's tuple-level deltas
    account for its whole version gap; a direct ``relation.tuples``
    mutation, a relation shared with another database, a whole-relation
    delta or a trimmed log leaves a gap, and they are rebuilt.

    ``cache_dir`` plugs in a persistent
    :class:`~repro.core.reduction_cache.ReductionCache`: reductions are
    content-addressed on disk, so a fresh session (same process or a
    restarted worker) over the same data performs **zero** forward
    reductions — only cheap disjunct evaluations.  The SHA content
    digests behind those addresses are computed only when a cache key
    is needed; a session without a ``cache_dir`` never computes one.

    The answer cache is LRU-bounded at ``answer_cache_size`` entries
    (reductions and plans are far fewer — one per canonical form — and
    stay unbounded), and admission is cost-aware: an
    :class:`AdmissionController` (``admission=`` injects one) adapts
    the cost floor to the observed hit/eviction balance, warmup-gated
    so small workloads admit everything.
    """

    def __init__(
        self,
        db: Database,
        naive_budget: float = DEFAULT_NAIVE_BUDGET,
        cache_dir: str | os.PathLike | None = None,
        answer_cache_size: int = 1024,
        cache_max_bytes: int | None = None,
        cache_namespace: str | None = None,
        admission: AdmissionController | None = None,
    ):
        if answer_cache_size < 1:
            raise ValueError("answer_cache_size must be at least 1")
        self.db = db
        self.naive_budget = naive_budget
        self._admission = admission or AdmissionController()
        self.stats = SessionStats()
        # cache_namespace tags this session's persistent hits/stores as
        # belonging to one tenant (see ReductionCache namespaces); the
        # content addressing itself stays tenant-blind, so identical
        # relations across tenants share one cached reduction
        self.cache = (
            ReductionCache(
                cache_dir,
                max_bytes=cache_max_bytes,
                namespace=cache_namespace,
            )
            if cache_dir is not None
            else None
        )
        self.answer_cache_size = answer_cache_size
        # what the caches reflect: each relation as last seen, and the
        # change-log position it was seen at
        self._seen = self._relation_versions()
        self._db_version = db.version
        # every store maps key -> (artifact, the relation names its
        # query reads — the unit of invalidation, ...); reductions also
        # carry what re-persisting them needs
        self._reductions: dict[tuple, _Reduction] = {}
        self._plans: dict[tuple, tuple[object, frozenset[str]]] = {}
        self._answers: OrderedDict[tuple, tuple[object, frozenset[str]]] = (
            OrderedDict()
        )

    @classmethod
    def for_database(cls, db: Database) -> "QuerySession":
        """The shared session of ``db`` — one per database object,
        attached to it so the session (and its caches) lives exactly as
        long as the database."""
        session = getattr(db, "_query_session", None)
        if session is None:
            session = cls(db)
            db._query_session = session
        return session

    # ------------------------------------------------------------------
    # phase timing (the ``--profile`` flame-sketch)
    # ------------------------------------------------------------------

    @contextmanager
    def _timed(self, phase: str):
        """Accumulate the wall time of the wrapped block into
        ``stats.phase_seconds[phase]`` (phases are timed at the leaf
        operations — canonicalization, the reduction itself, disjunct
        evaluation, persistent-cache I/O — so they never nest and the
        breakdown sums to the interesting fraction of total time)."""
        start = perf_counter()
        try:
            yield
        finally:
            self.stats.phase_seconds[phase] += perf_counter() - start

    def _canonical(self, query: Query) -> CanonicalForm:
        with self._timed("canonicalize"):
            return canonical_form(query)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def _relation_versions(self) -> dict[str, tuple[Relation, int]]:
        return {r.name: (r, r.version) for r in self.db}

    def invalidate(self) -> None:
        """Drop every cached artifact unconditionally.  (Automatic
        invalidation is finer: a detected mutation drops only the
        artifacts touching changed relations.)"""
        self.invalidate_relations(None)

    def invalidate_relations(
        self, changed: frozenset[str] | set[str] | None
    ) -> None:
        """Drop exactly the cached artifacts whose query references a
        relation in ``changed`` (``None``: any relation); everything
        else stays warm."""
        for store in (self._reductions, self._plans, self._answers):
            stale = [
                key
                for key, entry in store.items()
                if changed is None or entry[1] & changed
            ]
            for key in stale:
                del store[key]
        self.stats.invalidations += 1

    def _ensure_current(self) -> None:
        """Bring the caches up to date with the database: compare each
        relation's identity and version with what was last seen; what
        touches a changed relation is dropped, except the reductions
        the change log lets us patch."""
        current = self._relation_versions()
        seen, since = self._seen, self._db_version
        self._seen, self._db_version = current, self.db.version
        if current == seen:
            return
        deltas: dict[str, list[Delta]] = {}
        for delta in self.db.changes_since(since) or ():
            deltas.setdefault(delta.relation, []).append(delta)
        changed: set[str] = set()
        patch: dict[str, list[Delta]] = {}
        for name in current.keys() | seen.keys():
            old, new, log = seen.get(name), current.get(name), deltas.get(name)
            if old == new:
                continue
            changed.add(name)
            # patchable: still the same relation object, and the log's
            # tuple-level deltas are its whole version gap — one advance
            # each, so anything else that touched it leaves a remainder
            if (
                old and new and log
                and new[0] is old[0]
                and all(d.is_tuple_level for d in log)
                and len(log) == new[1] - old[1]
            ):
                patch[name] = log
        patched = self._patched(changed, patch)
        self.invalidate_relations(changed)
        self._reductions.update(patched)

    def _patched(
        self, changed: set[str], patch: dict[str, list[Delta]]
    ) -> dict[tuple, _Reduction]:
        """The delta-maintenance core: the cached plain reductions whose
        changed relations are all in ``patch``, brought up to date in
        place and persisted under the post-delta digests as *the
        change* — the cache chains a delta frame holding the deltas
        just applied to the entry the artifact came from — so a
        restarted worker stays warm at a write cost of O(change), not
        O(|D~|).  Answers and plans of the patched queries still drop:
        patching keeps the *reduction* warm, the (cheap) disjunct
        evaluation re-runs."""
        patched: dict[tuple, _Reduction] = {}
        for key, entry in self._reductions.items():
            touched = entry.deps & changed
            # the counting pipeline reduces over the G.1-shifted
            # database, whose ranks depend on every endpoint — never
            # patched, always rebuilt
            if (
                not touched
                or not touched <= patch.keys()
                or entry.pipeline != _PLAIN
            ):
                continue
            deltas = sorted(
                (d for name in touched for d in patch[name]),
                key=lambda d: d.version,
            )
            try:
                with self._timed("reduce"):
                    for delta in deltas:
                        entry.result.apply_delta(delta)
                        self.stats.delta_patches += 1
            except DomainChanged:
                continue
            patched[key] = entry
            if self.cache is not None:
                address = reduction_key(
                    entry.result.original,
                    database_digests(self.db, entry.deps),
                    entry.disjoint, entry.provenance, entry.pipeline,
                )
                with self._timed("cache_io"):
                    self.cache.put(address, entry.result, deltas)
        return patched

    # ------------------------------------------------------------------
    # cached artifacts
    # ------------------------------------------------------------------

    def reduction(
        self, query: Query, disjoint: bool = False, provenance: bool = False
    ) -> ForwardReductionResult:
        """The (memoized) forward reduction of ``query`` over this
        session's database, **as written**: atom labels, variable names
        and transformed-relation names all come from ``query`` itself
        (so ``tuple_order`` is keyed by the caller's labels).  Evaluation
        paths share reductions across isomorphic queries internally; this
        accessor trades that sharing for a faithful schema."""
        self._ensure_current()
        key = ("exact", query_content_key(query), disjoint, provenance)
        return self._reduce(key, query, disjoint, provenance, _PLAIN)

    def _reduction(
        self,
        form: CanonicalForm,
        disjoint: bool,
        provenance: bool,
        pipeline: str = _PLAIN,
    ) -> ForwardReductionResult:
        key = (form.key, disjoint, provenance, pipeline)
        return self._reduce(key, form.query, disjoint, provenance, pipeline)

    def _reduce(
        self, key: tuple, query: Query, disjoint: bool, provenance: bool,
        pipeline: str,
    ) -> ForwardReductionResult:
        """The reduction memoized under ``key`` — else loaded from the
        persistent cache, else computed (and persisted).  The persistent
        address is content-based — canonical query plus the digests of
        exactly the relations it reads — so entries written by other
        processes (or before a mutation of an unrelated relation) are
        shared, and stale entries are unreachable."""
        entry = self._reductions.get(key)
        if entry is not None:
            return entry.result
        result = None
        if self.cache is not None:
            address = reduction_key(
                query, database_digests(self.db, query.relations),
                disjoint, provenance, pipeline,
            )
            with self._timed("cache_io"):
                result = self.cache.get(address)
        if result is not None:
            self.stats.persistent_hits += 1
        else:
            with self._timed("reduce"):
                if pipeline == _COUNTING:
                    base = shift_distinct_left(query, self.db)
                else:
                    base = self.db
                result = forward_reduce(
                    query, base, disjoint=disjoint, provenance=provenance
                )
            self.stats.reductions += 1
            if self.cache is not None:
                with self._timed("cache_io"):
                    self.cache.put(address, result)
        self._reductions[key] = _Reduction(
            result, query.relations, disjoint, provenance, pipeline
        )
        return result

    def plan(self, query: Query):
        """The (memoized) optimizer plan for ``query`` on this database:
        that of the filter-less ``EXISTS`` disjunct it lowers to."""
        from repro.sql.rewrite import lower_query

        self._ensure_current()
        return self.sql_plan(lower_query(query, self.db).disjuncts[0])

    # ------------------------------------------------------------------
    # the SQL front-end (repro.sql)
    # ------------------------------------------------------------------

    def sql(self, text: str):
        """Compile and evaluate a SQL program against this database.

        Returns a ``bool`` for ``EXISTS`` heads and an ``int`` for
        ``COUNT(*)`` heads.  Pure join disjuncts run through the
        session's cached evaluate/count paths; per-disjunct optimizer
        plans are memoized (:meth:`sql_plan`) and invalidated by
        relation like every other artifact.  Malformed or unbindable
        text raises :class:`repro.sql.SqlError`.
        """
        from repro.sql import compile_sql, run_program

        self._ensure_current()
        return run_program(compile_sql(text, self.db), self)

    def explain_sql(self, text: str) -> dict:
        """The optimizer's EXPLAIN payload for ``text`` (JSON-safe):
        per disjunct, the canonical SQL, the lowered query, the width
        report, candidate costs and the chosen strategy.  Render with
        :func:`repro.sql.render_explain`."""
        from repro.sql import compile_sql, explain_program

        self._ensure_current()
        program = compile_sql(text, self.db)
        plans = [self.sql_plan(d) for d in program.disjuncts]
        return explain_program(program, self.db, plans)

    def sql_plan(self, disjunct):
        """The (memoized) optimizer plan for one compiled disjunct,
        invalidated when any relation it reads changes (plans embed
        cardinality stats).  A filter-less disjunct is keyed by its
        lowered query's canonical form and its head, so Query ASTs and
        isomorphic SQL texts share one plan; a filtered one by its
        canonical SQL text."""
        if disjunct.filtered:
            key = ("sql", disjunct.sql)
        else:
            key = (self._canonical(disjunct.query).key, disjunct.select.head)
        entry = self._plans.get(key)
        if entry is None:
            from repro.sql.cost import plan_disjunct

            plan = plan_disjunct(disjunct, self.db, self.naive_budget)
            entry = self._plans[key] = (plan, disjunct.query.relations)
        else:
            self.stats.sql_plan_hits += 1
        return entry[0]

    # ------------------------------------------------------------------
    # the (LRU-bounded) answer cache
    # ------------------------------------------------------------------

    def _answer_get(self, key: tuple):
        """The cached answer under ``key`` (refreshing its LRU slot), or
        ``None``."""
        ctrl = self._admission
        entry = self._answers.get(key)
        if entry is None:
            ctrl.note_miss(key)  # readmission feedback
            self.stats.admission_readmissions = ctrl.readmissions
            return None
        self._answers.move_to_end(key)
        ctrl.note_hit()
        return entry[0]

    def _answer_put(self, key: tuple, value, deps: frozenset[str]) -> None:
        """Cost-aware admission: an answer earns a cache slot only when
        recomputing it is expensive enough for the
        :class:`AdmissionController`'s floor (everything is admitted
        until its warmup ends).  Cheap answers are recomputed on demand
        instead of evicting expensive ones; rejections are counted in
        ``stats.admission_rejects``.  The cost proxy is the input tuples
        the answer's reduction reads (its ``O(N polylog N)`` ``N``)."""
        ctrl = self._admission
        cost = sum(len(self.db[name]) for name in deps if name in self.db)
        if not ctrl.admit(cost):
            ctrl.note_rejected(key)
            self.stats.admission_rejects += 1
            return
        if key in self._answers:
            self._answers.move_to_end(key)
        else:
            while len(self._answers) >= self.answer_cache_size:
                self._answers.popitem(last=False)
                self.stats.evictions += 1
                ctrl.note_eviction()
        self._answers[key] = (value, deps)
        self.stats.admission_raises = ctrl.raises

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, query: Query, strategy: Strategy = "auto") -> bool:
        """Boolean answer, cached by canonical form.

        ``strategy='auto'`` runs the optimizer's plan (:meth:`plan`);
        ``'reduction'`` forces the Theorem 4.15 pipeline (what
        :func:`repro.core.evaluate_ij` does).  The answer cache is
        strategy-agnostic — every correct strategy returns the same
        Boolean.
        """
        return bool(self._answer("eval", query, strategy))

    def count(
        self,
        query: Query,
        strategy: Literal["naive", "reduction"] = "reduction",
    ) -> int:
        """Exact witness count, cached by canonical form.

        ``strategy='reduction'`` runs the Appendix G counting pipeline;
        ``'naive'`` enumerates witnesses (what the SQL optimizer plans
        for small inputs).  As for :meth:`evaluate`, the answer cache is
        strategy-agnostic."""
        return int(self._answer("count", query, strategy))

    def _answer(self, kind: str, query: Query, strategy: str):
        """The cached read both heads share: ``kind`` is ``"eval"`` or
        ``"count"``."""
        self._ensure_current()
        form = self._canonical(query)
        key = (kind, form.key)
        cached = self._answer_get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        answer = self._run(form, kind == "count", strategy)
        self._answer_put(key, answer, form.query.relations)
        return answer

    def _run(self, form: CanonicalForm, counting: bool, strategy: str):
        """The one strategy ladder — ``naive | sweep | reduction``, for
        either head.  ``sweep`` has no counting form and needs a binary
        join on one interval variable; a caller naming it for anything
        else gets the reduction (whose disjuncts :mod:`repro.engine.ej`
        plans per structure and head — no width report is read here)."""
        query = form.query
        if strategy == "auto":
            strategy = self.plan(query).strategy
        if strategy == "naive":
            with self._timed("evaluate"):
                return (naive_count if counting else naive_evaluate)(
                    query, self.db
                )
        if strategy == "sweep" and not counting:
            shared = single_shared_interval_variable(query)
            if shared is not None:
                with self._timed("evaluate"):
                    return sweep_evaluate_binary(query, self.db, shared)
        if counting:
            result = self._reduction(form, True, True, _COUNTING)
            with self._timed("evaluate"):
                return count_disjunction(result)
        result = self._reduction(form, False, False)
        with self._timed("evaluate"):
            return evaluate_disjunction(result)

    def witnesses(
        self, query: Query, limit: int | None = None
    ) -> Iterator[dict[str, tuple]]:
        """Enumerate witnesses through the memoized counting-pipeline
        reduction, relabeled back to the original query's atom labels."""
        self._ensure_current()
        form = self._canonical(query)
        result = self._reduction(form, True, True, _COUNTING)
        from .ij_engine import witnesses_from_reduction

        for witness in witnesses_from_reduction(
            form.query, self.db, result, limit
        ):
            yield form.relabel_witness(witness)

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------

    def evaluate_many(
        self, queries: Sequence[Query], strategy: Strategy = "auto"
    ) -> list[bool]:
        """Evaluate a batch: queries are grouped by canonical form, one
        answer (and at most one reduction) is computed per group, and
        every member of a group shares the group's short-circuit
        outcome."""
        return self._many(queries, lambda q: self.evaluate(q, strategy))

    def count_many(self, queries: Sequence[Query]) -> list[int]:
        """Count a batch, one disjoint reduction per canonical form."""
        return self._many(queries, self.count)

    def _many(self, queries: Sequence[Query], compute) -> list:
        """Group a batch by canonical form, compute one answer per
        group, fan it out; duplicates beyond each group's first member
        count as cache hits."""
        results: list = [None] * len(queries)
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(queries):
            groups.setdefault(self._canonical(query).key, []).append(i)
        for indices in groups.values():
            value = compute(queries[indices[0]])
            for i in indices:
                results[i] = value
            self.stats.hits += len(indices) - 1
        return results


# ----------------------------------------------------------------------
# one-call conveniences over a database's shared session
# ----------------------------------------------------------------------


def execute_sql(text: str, db: Database) -> bool | int:
    """Evaluate SQL ``text`` against ``db`` through its shared session
    (so repeated text queries hit warm caches): ``bool`` for ``EXISTS``
    heads, ``int`` for ``COUNT(*)``."""
    return QuerySession.for_database(db).sql(text)


def explain_sql(text: str, db: Database) -> str:
    """Human-readable EXPLAIN for SQL ``text``: per disjunct, the
    lowered query, the width report, candidate costs and the chosen
    strategy."""
    from repro.sql import render_explain

    return render_explain(QuerySession.for_database(db).explain_sql(text))


def explain(query: Query, db: Database) -> str:
    """The same EXPLAIN for a Query AST, through the ``EXISTS`` program
    it lowers to."""
    from repro.sql import explain_program, lower_query, render_explain

    return render_explain(explain_program(lower_query(query, db), db))
