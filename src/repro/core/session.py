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
* each canonical form has **one** artifact that ``evaluate``,
  ``count`` and ``witnesses`` all read (:meth:`QuerySession._reduce`),
  **memoized**, **patched** from the change log and — when
  the session is given a ``cache_dir`` — **persisted** to a
  content-addressed on-disk :class:`~repro.core.reduction_cache.ReductionCache`
  shared across processes and workers;
* queries are **canonicalized** (variable renaming + atom reordering,
  by the one canonical labelling of
  :mod:`repro.hypergraph.isomorphism`), so isomorphic queries share one
  reduction;
* optimizer plans (:func:`repro.sql.cost.plan_disjunct` — the one
  planner, which Query ASTs reach through
  :func:`repro.sql.rewrite.lower_query`) and Boolean / count answers are
  memoized under the same keys (the answer cache is an LRU of
  :data:`ANSWER_CACHE_SIZE` entries), so a batch whose members share a
  reduction also shares its short-circuit outcome;
* compiled SQL programs (:func:`repro.sql.compile_sql`) are memoized by
  their text (an LRU of the same bound): a repeated text is compiled
  once, and recompiled only after a relation it reads changes — its
  schema and a sample tuple's kinds are what the compile read.

``evaluate_many`` / ``count_many`` batch-execute a list of queries: the
batch is grouped by canonical form, one reduction (and one answer) is
computed per group, and every member receives it.
"""

from __future__ import annotations

import os
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Iterator, Literal, Sequence, get_args

from ..engine.relation import Database, Delta, Relation
from ..hypergraph.isomorphism import SHAPE_MEMO_SIZE, canonical_labelling
from ..queries.query import Atom, Query, Variable
from ..reduction.disjoint import require_self_join_free, shift_distinct_left
from ..reduction.forward import (
    DomainChanged,
    ForwardReductionResult,
    forward_reduce,
)
from .baselines import naive_count, naive_evaluate
from .disjunct_eval import count_disjunction, evaluate_disjunction
from .ij_engine import witnesses_from_reduction
from .reduction_cache import (
    ReductionCache,
    database_digests,
    query_content_key,
    reduction_key,
)
from .sweep import single_shared_interval_variable, sweep_evaluate_binary

__all__ = [
    "CanonicalForm",
    "QuerySession",
    "SessionStats",
    "canonical_form",
    "execute_sql",
    "explain",
    "explain_sql",
]

Strategy = Literal["auto", "naive", "sweep", "reduction"]

#: Answer-cache bound: past this many entries the least recently used
#: answer is evicted.  Compiled SQL programs are bounded by it too.
ANSWER_CACHE_SIZE = 1024


def _lru_put(store: OrderedDict, key, entry) -> int:
    """Insert ``entry`` as ``store``'s most recent, first dropping its
    least recently used entries down to :data:`ANSWER_CACHE_SIZE` (read
    per insert); returns how many were dropped."""
    dropped = 0
    while len(store) >= ANSWER_CACHE_SIZE:
        store.popitem(last=False)
        dropped += 1
    store[key] = entry
    return dropped


# ----------------------------------------------------------------------
# query canonicalization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """A query's canonical representative.

    ``key`` is equal for two queries exactly when one maps onto the
    other by renaming variables and reordering atoms while preserving
    each atom's relation, argument positions and kinds — the condition under
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


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def canonical_form(query: Query) -> CanonicalForm:
    """Canonicalize ``query`` by the one canonical labelling
    (:mod:`repro.hypergraph.isomorphism`): the representative lists the
    atoms in canonical order as ``a0, a1, ...`` and numbers variables
    ``v0, v1, ...`` by first occurrence.  An LRU of ``SHAPE_MEMO_SIZE``
    queries: a hot serving loop re-canonicalizes one working set."""
    labelling = canonical_labelling(
        [a.variable_names for a in query.atoms],
        [a.relation for a in query.atoms],
        {v.name: v.is_interval for v in query.variables},
        positional=True,
    )
    order = [query.atoms[i] for i in labelling.edges]
    first = dict.fromkeys(v for atom in order for v in atom.variable_names)
    rename = {v: f"v{j}" for j, v in enumerate(first)}
    atoms = tuple(
        Atom(f"a{i}", a.relation, tuple(Variable(rename[v.name], v.is_interval) for v in a.variables))
        for i, a in enumerate(order)
    )
    return CanonicalForm(
        labelling.key,
        Query(atoms, name="canon"),
        tuple((f"a{i}", atom.label) for i, atom in enumerate(order)),
    )


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
    #: why a changed reduction was rebuilt instead of patched, one count
    #: per reduction, each also counted per its reason: a replayed delta
    #: (or a witness read of a loaded artifact) raised ``DomainChanged``,
    #: or a touched relation's change log did not cover its version gap
    #: — the gap test that failed is one of :attr:`UNPATCHED_REASONS`
    domain_changed: int = 0
    domain_changed_by: Counter = field(default_factory=Counter)
    unpatched: int = 0
    unpatched_by: Counter = field(default_factory=Counter)
    sql_plan_hits: int = 0     # optimizer plans served from the plan store
    sql_compile_hits: int = 0  # compiled SQL programs served from the memo
    #: accumulated wall seconds per phase — the built-in flame-sketch
    #: behind ``repro evaluate --profile``
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in PROFILE_PHASES}
    )

    #: the log was trimmed past the session's version; the relation
    #: object changed (replaced, added or removed); a whole-relation
    #: delta; a change the log never saw (``relation.tuples`` mutated)
    UNPATCHED_REASONS = ("log_trimmed", "replaced", "whole_relation", "unlogged")

    def as_dict(self) -> dict[str, int]:
        return {
            "reductions": self.reductions,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "persistent_hits": self.persistent_hits,
            "evictions": self.evictions,
            "delta_patches": self.delta_patches,
            "domain_changed": self.domain_changed,
            **{
                f"domain_changed_{reason}": self.domain_changed_by[reason]
                for reason in DomainChanged.REASONS
            },
            "unpatched": self.unpatched,
            **{
                f"unpatched_{reason}": self.unpatched_by[reason]
                for reason in self.UNPATCHED_REASONS
            },
            "sql_plan_hits": self.sql_plan_hits,
            "sql_compile_hits": self.sql_compile_hits,
        }

    def rebuilt(self, exc: DomainChanged) -> None:
        """Count one rebuild ``exc`` forced, with its reason."""
        self.domain_changed += 1
        self.domain_changed_by[exc.reason] += 1

    def profile(self) -> dict[str, float]:
        """Per-phase wall seconds accumulated so far (a copy)."""
        return dict(self.phase_seconds)


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

    The answer cache is an LRU that admits every answer and holds at
    most :data:`ANSWER_CACHE_SIZE` of them (reductions and plans are far
    fewer — one per canonical form — and stay unbounded); an answer
    pushed out counts in ``stats.evictions``.  Compiled SQL programs are
    an LRU of the same bound, keyed by text.

    A session is not thread-safe: one thread drives it (a worker's
    loop, or the serving tier's event loop for the shared session of
    its database).
    """

    def __init__(
        self,
        db: Database,
        cache_dir: str | os.PathLike | None = None,
        cache_max_bytes: int | None = None,
        cache_namespace: str | None = None,
    ):
        if cache_max_bytes is not None and cache_dir is None:
            raise ValueError("cache_max_bytes requires cache_dir")
        self.db = db
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
        # what the caches reflect: each relation as last seen, and the
        # change-log position it was seen at
        self._seen = self._relation_versions()
        self._db_version = db.version
        # every store maps key -> (artifact, the relation names its
        # query reads — the unit of invalidation)
        self._reductions: dict[tuple, tuple] = {}
        self._plans: dict[tuple, tuple[object, frozenset[str]]] = {}
        self._answers: OrderedDict[tuple, tuple[object, frozenset[str]]] = (
            OrderedDict()
        )
        self._programs: OrderedDict[str, tuple[object, frozenset[str]]] = (
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
        for store in (self._reductions, self._plans, self._answers, self._programs):
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
        logged = self.db.changes_since(since)
        deltas: dict[str, list[Delta]] = {}
        for delta in logged or ():
            deltas.setdefault(delta.relation, []).append(delta)
        patch: dict[str, list[Delta]] = {}
        unpatchable: dict[str, str] = {}  # name -> the gap test it failed
        for name in current.keys() | seen.keys():
            old, new, log = seen.get(name), current.get(name), deltas.get(name, ())
            if old == new:
                continue
            # patchable: still the same relation object, and the log's
            # tuple-level deltas are its whole version gap — one advance
            # each, so anything else that touched it leaves a remainder
            if not (old and new and new[0] is old[0]):
                unpatchable[name] = "replaced"
            elif logged is None:
                unpatchable[name] = "log_trimmed"
            elif not all(d.is_tuple_level for d in log):
                unpatchable[name] = "whole_relation"
            elif len(log) != new[1] - old[1]:
                unpatchable[name] = "unlogged"
            else:
                patch[name] = log
        changed = patch.keys() | unpatchable.keys()
        patched = self._patched(changed, patch, unpatchable)
        self.invalidate_relations(changed)
        self._reductions.update(patched)

    def _patched(
        self,
        changed: set[str],
        patch: dict[str, list[Delta]],
        unpatchable: dict[str, str],
    ) -> dict[tuple, tuple]:
        """The delta-maintenance core: the cached artifacts whose
        changed relations are all in ``patch``, brought up to date in
        place and persisted under the post-delta digests as *the
        change* — the cache chains a delta frame holding the deltas
        just applied to the entry the artifact came from — so a
        restarted worker stays warm at a write cost of O(change), not
        O(|D~|) — counted once its whole delta list applied, never for
        one that raises :class:`DomainChanged` part-way and is rebuilt.
        Answers and plans of the patched queries still drop: patching
        keeps the *reduction* warm, the disjunct evaluation re-runs."""
        patched = {}
        for key, (result, deps) in self._reductions.items():
            touched = deps & changed
            if not touched:
                continue
            if not touched <= patch.keys():
                self.stats.unpatched += 1
                self.stats.unpatched_by[unpatchable[min(touched - patch.keys())]] += 1
                continue
            deltas = sorted(
                (d for name in touched for d in patch[name]),
                key=lambda d: d.version,
            )
            try:
                with self._timed("reduce"):
                    for delta in deltas:
                        result.apply_delta(delta)
            except DomainChanged as exc:
                self.stats.rebuilt(exc)
                continue
            self.stats.delta_patches += len(deltas)
            patched[key] = (result, deps)
            if self.cache is not None:
                address = self._address(result.original)
                with self._timed("cache_io"):
                    self.cache.put(address, result, deltas)
        return patched

    # ------------------------------------------------------------------
    # cached artifacts
    # ------------------------------------------------------------------

    def reduction(self, query: Query) -> ForwardReductionResult:
        """The (memoized) artifact of ``query`` over this session's
        database — the one every head reads — **as written**: atom
        labels, variable names and transformed-relation names all come
        from ``query`` itself (so ``tuple_order`` is keyed by the
        caller's labels).  Evaluation paths share artifacts across
        isomorphic queries internally; this accessor trades that sharing
        for a faithful schema."""
        self._ensure_current()
        return self._reduce(("exact", query_content_key(query)), query)

    def _reduction(self, form: CanonicalForm) -> ForwardReductionResult:
        return self._reduce(form.key, form.query)

    def _address(self, query: Query) -> str:
        """``query``'s persistent address: the query plus the digests of
        exactly the relations it reads, so entries are shared across
        processes and stale ones are unreachable."""
        digests = database_digests(self.db, query.relations)
        return reduction_key(query, digests, True, True, "appendix-g")

    def _reduce(self, key: tuple, query: Query, load=True) -> ForwardReductionResult:
        """The artifact memoized under ``key``, else loaded (unless
        ``load`` is false: the stored entry is what failed), else
        computed and persisted: the Appendix G disjoint provenance
        reduction, over the G.1-shifted database unless ``query`` has a
        self-join (:mod:`repro.reduction.disjoint`)."""
        entry = self._reductions.get(key)
        if entry is not None:
            return entry[0]
        result = None
        if self.cache is not None:
            address = self._address(query)
            with self._timed("cache_io"):
                result = self.cache.get(address) if load else None
        if result is not None:
            self.stats.persistent_hits += 1
        else:
            with self._timed("reduce"):
                base = self.db
                if query.is_self_join_free:
                    base = shift_distinct_left(query, self.db)
                result = forward_reduce(
                    query, base, disjoint=True, provenance=True
                )
            self.stats.reductions += 1
            if self.cache is not None:
                with self._timed("cache_io"):
                    self.cache.put(address, result)
        self._reductions[key] = (result, query.relations)
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

    def program(self, text: str):
        """The (memoized) :class:`~repro.sql.CompiledProgram` of SQL
        ``text`` over this database — the one compile every SQL entry
        point goes through.  The entry depends on the relations the
        program reads, so a change to one of them recompiles it; the
        store is an LRU of :data:`ANSWER_CACHE_SIZE` texts.  Malformed
        or unbindable text raises :class:`repro.sql.SqlError` on every
        call (a failure is never memoized)."""
        from repro.sql import compile_sql

        self._ensure_current()
        entry = self._programs.get(text)
        if entry is not None:
            self._programs.move_to_end(text)
            self.stats.sql_compile_hits += 1
            return entry[0]
        program = compile_sql(text, self.db)
        _lru_put(self._programs, text, (program, program.relations))
        return program

    def sql(self, text: str):
        """Compile (:meth:`program`) and evaluate a SQL program against
        this database.

        Returns a ``bool`` for ``EXISTS`` heads and an ``int`` for
        ``COUNT(*)`` heads.  Pure join disjuncts run through the
        session's cached evaluate/count paths; per-disjunct optimizer
        plans are memoized (:meth:`sql_plan`) and invalidated by
        relation like every other artifact.  Malformed or unbindable
        text raises :class:`repro.sql.SqlError`.
        """
        from repro.sql import run_program

        return run_program(self.program(text), self)

    def explain_sql(self, text: str) -> dict:
        """The optimizer's EXPLAIN payload for ``text`` (JSON-safe):
        per disjunct, the canonical SQL, the lowered query, the width
        report, candidate costs and the chosen strategy.  Render with
        :func:`repro.sql.render_explain`."""
        from repro.sql import explain_program

        program = self.program(text)
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

            plan = plan_disjunct(disjunct, self.db)
            entry = self._plans[key] = (plan, disjunct.query.relations)
        else:
            self.stats.sql_plan_hits += 1
        return entry[0]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, query: Query, strategy: Strategy = "auto") -> bool:
        """Boolean answer, cached by canonical form.

        ``strategy='auto'`` runs the optimizer's plan (:meth:`plan`);
        ``'reduction'`` forces the Theorem 4.15 pipeline on the query's
        one artifact, the Appendix G reduction :meth:`count` reads too
        (:func:`repro.core.evaluate_ij` runs the plain one).  The answer
        cache is strategy-agnostic — every correct strategy returns the
        same Boolean.
        """
        return bool(self._answer("eval", query, strategy))

    def count(
        self,
        query: Query,
        strategy: Literal["naive", "reduction"] = "reduction",
    ) -> int:
        """Exact witness count, cached by canonical form.

        ``strategy='reduction'`` counts on the query's artifact (a
        self-join query raises ``ValueError``: it has no G.1 shift);
        ``'naive'`` enumerates witnesses (what the SQL optimizer plans
        for small inputs).  As for :meth:`evaluate`, the answer cache is
        strategy-agnostic."""
        return int(self._answer("count", query, strategy))

    def _answer(self, kind: str, query: Query, strategy: str):
        """The cached read both heads share: ``kind`` is ``"eval"`` or
        ``"count"``."""
        if strategy not in get_args(Strategy):
            raise ValueError(f"unknown strategy {strategy!r}")
        self._ensure_current()
        form = self._canonical(query)
        key = (kind, form.key)
        entry = self._answers.get(key)
        if entry is not None:
            self._answers.move_to_end(key)
            self.stats.hits += 1
            return entry[0]
        self.stats.misses += 1
        answer = self._run(form, kind == "count", strategy)
        self.stats.evictions += _lru_put(
            self._answers, key, (answer, form.query.relations)
        )
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
            require_self_join_free(query)
        result = self._reduction(form)
        with self._timed("evaluate"):
            if counting:
                return count_disjunction(result)
            return evaluate_disjunction(result)

    def witnesses(
        self, query: Query, limit: int | None = None
    ) -> Iterator[dict[str, tuple]]:
        """Enumerate witnesses through the query's memoized artifact,
        relabeled back to the original query's atom labels."""
        self._ensure_current()
        form = self._canonical(query)
        require_self_join_free(form.query)
        result = self._reduction(form)
        try:
            result.tuple_order, result.ranks  # a load decodes them here
        except DomainChanged as exc:
            self.stats.rebuilt(exc)
            del self._reductions[form.key]
            result = self._reduce(form.key, form.query, load=False)
        for witness in witnesses_from_reduction(result, limit):
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
        """Count a batch, one artifact per canonical form."""
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
