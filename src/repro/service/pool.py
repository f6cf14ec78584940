"""The process-pool executor behind the service: N workers, one shared
persistent reduction cache, canonical-group routing.

Each worker process owns a full copy of the database and a
:class:`~repro.core.session.QuerySession` over the *shared*
``cache_dir``, so the expensive artifacts — forward reductions — are
computed **once cluster-wide**: queries are routed by their canonical
form (a stable digest of the canonicalized structure), isomorphic
queries therefore land on the same worker, and whatever that worker
reduces is persisted content-addressed for every other worker and every
future restart.  A restarted pool over unchanged data performs zero
forward reductions.

Mutations broadcast to every worker through the logged
:class:`~repro.engine.relation.Database` delta API, so each warm worker
patches its cached reductions in place (PR 3) instead of rebuilding.
Tuple-level mutations are idempotent under set semantics (a replayed
insert/delete is a no-op), which is what makes crash-resubmission safe.

Failure model — one registry per failure domain, and whoever pops an
entry owns its resolve.  A worker's failure domain is its process, so
its ``outstanding`` map is the one registry: an :class:`Entry`
``(op, query, payload, future)`` goes in when the task is queued and is
popped either by the collector matching the worker's answer or, on pipe
EOF (crash, OOM-kill), by the death handler, which hands the popped
entries to :func:`settle_lost` — the one function, shared with the
router tier, that reads the verb table's lost-ack column: routed work
is placed again on the *same* future (every future resolves exactly
once, no lost or duplicated answers), a broadcast's ack resolves
benignly, anything else fails typed.  The dead worker is then
**respawned** in place (the parent keeps its database copy current by
replaying every broadcast mutation, so the replacement sees the served
contents), restoring the pool to full strength instead of shrinking
it; over a shared ``cache_dir`` the replacement warms from the
persistent reduction cache and performs zero forward reductions.
``max_respawns`` is a crash-*loop* guard — each respawn spends a unit,
a replacement's first answer refills it, so only rapid successive
crash-respawn cycles exhaust it; ``max_respawns=0`` never respawns and
the pool shrinks.  When the last worker dies, outstanding futures fail
with :class:`WorkerCrash`.

Workers are started with ``spawn``, the only start method that is safe
in a threaded parent (the asyncio server, the collector); it also
exercises the cross-process stability of the content-addressed cache
for real — a spawned worker shares no interpreter state, only the cache
directory.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Iterable, Protocol, Sequence

from ..core.reduction_cache import ReductionCache
from ..core.session import QuerySession, canonical_form
from ..engine.relation import Database, Delta
from ..queries.query import Query
from .protocol import DROP, FAIL, RESUBMIT, VERBS
from .ring import stable_digest

__all__ = [
    "Entry",
    "Pool",
    "PoolClosed",
    "WorkerCrash",
    "WorkerPool",
    "settle_lost",
    "submit_many",
    "submit_sql",
]


class WorkerCrash(RuntimeError):
    """Every worker died before the task could complete."""


class PoolClosed(RuntimeError):
    """The pool no longer accepts work."""


# ----------------------------------------------------------------------
# the pool contract
# ----------------------------------------------------------------------


class Pool(Protocol):
    """What the router places work on and the serving tier is written
    against — met by :class:`WorkerPool` (worker processes) and
    :class:`~repro.service.remote.RemoteShardPool` (one tenant on a
    remote shard node) alike.  ``submit`` routes one task by ``query``'s
    canonical form; passing ``future`` places work again on a future a
    caller already holds, which is all a resubmission is."""

    def submit(
        self, op: str, query: Query, *, future: Future | None = None, **payload: Any
    ) -> Future: ...

    def mutate(self, kind: str, relation: str, t: tuple) -> Future: ...

    def stats_async(self) -> Future: ...

    def close(self) -> dict: ...

    def terminate(self) -> None: ...


@dataclass
class Entry:
    """One unit of outstanding work, as every registry holds it: enough
    to resolve it (``future``) and enough to place it again
    (``submit(op, query, future=future, **payload)``)."""

    op: str
    query: Query | None
    payload: dict
    future: Future
    #: how many workers died with this task outstanding
    crashes: int = 0
    #: a respawn's delta catch-up: fire-and-forget, and no proof of health
    replay: bool = False
    #: whose work it is, in a registry that spans tenants
    tenant: str | None = None


def _resolve(future: Future, value=None, error: BaseException | None = None) -> None:
    """Resolve a future exactly once, tolerating a concurrent
    cancellation (a deadline miss cancels through ``wrap_future`` from
    the event-loop thread while the collector resolves from its own) —
    the late result is simply dropped, and the collector must never die
    to an ``InvalidStateError``."""
    if future.done():
        return
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
    except InvalidStateError:
        pass


def settle_lost(
    entries: Iterable[Entry],
    resubmit: Callable[[Entry], bool] | None,
    error: BaseException,
) -> tuple[int, int]:
    """Decide the outcome of entries whose worker or connection died —
    the one place that does, for the worker-death, shard-eviction and
    router-close paths alike.  The caller has *popped* the entries from
    its registry, so it owns their resolve; the verb table says what a
    lost ack means.  ``resubmit(entry)`` takes a routed task over (it
    returns ``False`` when nobody can, ``None`` stands for nobody) and
    everything left fails with ``error``.  Returns ``(resubmitted,
    failed)``."""
    resubmitted = failed = 0
    for entry in entries:
        verb = VERBS.get(entry.op)
        lost = FAIL if verb is None else verb.lost
        if lost == DROP:
            _resolve(entry.future, None)
        elif lost == RESUBMIT and resubmit is not None and resubmit(entry):
            resubmitted += 1
        else:
            failed += 1
            _resolve(entry.future, error=error)
    return resubmitted, failed


def _gather(futures: list[Future], assemble: Callable[[list], Any]) -> Future:
    """A future of ``assemble([f.result() for f in futures])``, resolved
    once every future is done (first exception wins)."""
    result: Future = Future()
    remaining = len(futures)
    if remaining == 0:
        result.set_result(assemble([]))
        return result
    lock = threading.Lock()
    state = {"remaining": remaining}

    def on_done(_future: Future) -> None:
        with lock:
            state["remaining"] -= 1
            last = state["remaining"] == 0
        if result.done():
            return
        error = _future.exception()
        if error is not None:
            _resolve(result, error=error)
            return
        if last:
            try:
                _resolve(result, assemble([f.result() for f in futures]))
            except Exception as err:  # pragma: no cover - defensive
                _resolve(result, error=err)

    for future in futures:
        future.add_done_callback(on_done)
    return result


def submit_many(
    submit: Callable[..., Future], queries: Sequence[Query], op: str = "evaluate"
) -> Future:
    """A batch over any ``submit``: the batch is grouped by canonical
    form, one task per group is routed to the group's owner, and every
    member receives its group's answer.  One future resolving to the
    full, order-preserving answer list."""
    groups: dict[tuple, list[int]] = {}
    for i, query in enumerate(queries):
        groups.setdefault(canonical_form(query).key, []).append(i)

    def assemble(values: list) -> list:
        answers: list = [None] * len(queries)
        for indices, value in zip(groups.values(), values):
            for i in indices:
                answers[i] = value
        return answers

    return _gather(
        [submit(op, queries[indices[0]]) for indices in groups.values()], assemble
    )


def submit_sql(submit: Callable[..., Future], db: Database, text: str) -> Future:
    """A SQL program over any ``submit``: compiled (and cost-based-
    optimized) once, here, against ``db``; each disjunct is then routed
    by the canonical form of its *lowered* query — so a disjunct
    isomorphic to an already-hot conjunctive query lands on the same
    shard and worker — carrying its single-disjunct SQL text, which the
    worker recompiles against its own replica.  The answers combine per
    the head (``EXISTS``: any, ``COUNT(*)``: sum).  Raises
    :class:`~repro.sql.SqlError` on malformed SQL."""
    from ..sql import compile_sql

    program = compile_sql(text, db)
    return _gather(
        [submit("sql", d.query, sql=d.sql) for d in program.disjuncts],
        program.combine,
    )


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------


def _worker_mutate(session: QuerySession, db: Database, task: dict) -> dict:
    # the task is a Delta's kind / relation / tuple
    delta = db.apply_delta(Delta(db.version, **task))
    return {"applied": delta is not None, "version": db.version}


def _worker_sql(session: QuerySession, db: Database, task: dict):
    # one single-disjunct SQL text per task: recompile against the
    # worker's own database (schemas may differ from the submitter's
    # view only in statistics, never in shape) and run through the
    # session so SQL plans and answers share its memoization.
    from repro.sql import compile_sql, run_program

    return run_program(compile_sql(task["sql"], db), session)


def _worker_stats(session: QuerySession) -> dict:
    return {
        "pid": os.getpid(),
        "session": session.stats.as_dict(),
        "cache": session.cache.stats() if session.cache is not None else None,
    }


#: What a worker does with each task op: ``handler(session, db, task)``.
_WORKER_OPS: dict[str, Callable[[QuerySession, Database, dict], Any]] = {
    "evaluate": lambda session, db, task: bool(
        session.evaluate(task["query"], strategy="reduction")
    ),
    "count": lambda session, db, task: int(session.count(task["query"])),
    "sql": _worker_sql,
    "mutate": _worker_mutate,
    "stats": lambda session, db, task: _worker_stats(session),
}


def _exit_with_parent() -> None:
    """A worker must not outlive the process that spawned it, however
    that process ends (SIGKILL included): the worker itself holds a
    write end of its task queue, so ``tasks.get()`` never sees EOF and
    the loop alone would wait forever, re-parented to init."""
    connection_wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _worker_main(
    worker_id: int,
    db: Database,
    options: dict,
    tasks,
    results: Connection,
) -> None:
    """One worker: a session-owning loop over the task queue.  ``None``
    is the graceful-shutdown sentinel; the final message on the result
    pipe is ``("exit", ...)`` carrying the session's lifetime stats."""
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    session = QuerySession(db, **options)
    try:
        while True:
            task = tasks.get()
            if task is None:
                results.send(("exit", worker_id, None, _worker_stats(session)))
                return
            task_id, op, payload = task
            try:
                value = _WORKER_OPS[op](session, db, payload)
            except Exception as error:
                results.send(
                    (
                        "error",
                        worker_id,
                        task_id,
                        f"{type(error).__name__}: {error}",
                    )
                )
            else:
                results.send(("ok", worker_id, task_id, value))
    finally:
        results.close()


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, index: int, process, tasks, conn: Connection):
        self.index = index
        self.process = process
        self.tasks = tasks
        self.conn = conn
        self.alive = True
        self.exited = False          # sent its graceful "exit" message
        self.respawned = False       # a crash replacement, not yet heard from
        self.outstanding: dict[int, Entry] = {}  # the worker's one registry
        self.final_stats: dict | None = None


class WorkerPool:
    """Fan batched query workloads out across worker processes.

    ``db`` is copied into every worker at start (and kept current in the
    parent by replaying mutations, so diagnostics and future spawns see
    the served contents).  ``cache_dir`` — strongly recommended — is the
    shared persistent reduction cache that makes the pool's work
    cluster-wide-amortised and restart-warm.

    ``submit`` / ``evaluate`` / ``count`` return
    :class:`concurrent.futures.Future`; ``evaluate_many`` and
    ``count_many`` are the blocking batch interface mirroring
    :meth:`~repro.core.session.QuerySession.evaluate_many`.
    """

    #: How many workers one task may kill (crash-resubmit cycles)
    #: before its future fails with :class:`WorkerCrash` instead of
    #: being routed to yet another replacement.
    MAX_TASK_CRASHES = 3

    def __init__(
        self,
        db: Database,
        workers: int = 4,
        cache_dir: str | os.PathLike | None = None,
        answer_cache_size: int = 1024,
        cache_max_bytes: int | None = None,
        cache_namespace: str | None = None,
        max_respawns: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        # validate the forwarded session options here, in the parent:
        # a bad value would otherwise kill every spawned worker at
        # session construction and surface only as an opaque
        # WorkerCrash on the first request
        if answer_cache_size < 1:
            raise ValueError("answer_cache_size must be at least 1")
        if cache_max_bytes is not None and cache_max_bytes < 0:
            raise ValueError("cache_max_bytes must be non-negative")
        if cache_namespace is not None and not ReductionCache.NAMESPACE_PATTERN.match(
            cache_namespace
        ):
            raise ValueError(f"invalid cache namespace {cache_namespace!r}")
        self.db = db
        # the keyword arguments of every worker's QuerySession
        self._options = {
            "cache_dir": os.fspath(cache_dir) if cache_dir is not None else None,
            "answer_cache_size": answer_cache_size,
            "cache_max_bytes": cache_max_bytes,
            "cache_namespace": cache_namespace,
        }
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._task_ids = itertools.count(1)
        # crash-loop guard, not a lifetime cap: each respawn consumes a
        # unit of budget, and the first message from a replacement (it
        # started, served, proved healthy) refills it — so a worker
        # that dies instantly at startup (bad cache volume, OOM on
        # unpickle) stops respawning after the budget, while spread-out
        # crashes over a long-lived pool's life respawn forever
        self._respawn_budget = (
            4 * workers if max_respawns is None else max_respawns
        )
        self._respawns_remaining = self._respawn_budget
        self._respawns_inflight = 0  # replacement builds not yet registered
        # routed tasks with no worker alive to take them but a
        # replacement being built (submitted in that window, or lost
        # with the last worker) — routed, or failed, when the in-flight
        # respawn resolves
        self._parked: list[Entry] = []
        self.respawns = 0          # replacements actually performed
        self._closed = False
        self._all_exited = threading.Event()
        self._workers: list[_Worker] = []
        for index in range(workers):
            self._workers.append(self._spawn(index))
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        tasks = self._ctx.Queue()
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.db, self._options, tasks, child_conn),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        # parent must not hold the send end, or a dead worker would
        # never EOF its pipe and crashes would go undetected
        child_conn.close()
        return _Worker(index, process, tasks, parent_conn)

    def wait_ready(self, timeout: float = 120.0) -> "WorkerPool":
        """Block until every worker has finished starting (imported the
        package, unpickled its database copy, built its session) —
        useful before timing steady-state throughput, since
        ``__init__`` returns as soon as the processes are *launched*."""
        self.stats_async().result(timeout=timeout)
        return self

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def alive_workers(self) -> list[int]:
        with self._lock:
            return [w.index for w in self._workers if w.alive]

    def close(self, timeout: float = 60.0) -> dict:
        """Graceful shutdown: drain every queued task (the sentinel is
        FIFO behind them), collect each worker's lifetime stats, join
        the processes.  Returns ``{"workers": [...], "aggregate":
        {...}}`` — the summed session counters across workers."""
        with self._lock:
            if not self._closed:
                self._closed = True
                for worker in self._workers:
                    if worker.alive:
                        worker.tasks.put(None)
        self._all_exited.wait(timeout)
        for worker in self._workers:
            worker.process.join(timeout=timeout)
            worker.tasks.close()
            worker.tasks.cancel_join_thread()
        self._collector.join(timeout=timeout)
        with self._lock:
            return self._report(
                {"worker": w.index, **w.final_stats}
                for w in self._workers
                if w.final_stats is not None
            )

    def terminate(self) -> None:
        """Hard stop: kill every worker.  Outstanding futures fail."""
        with self._lock:
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=10)
        self._all_exited.wait(10)

    def _report(self, per_worker: Iterable[dict]) -> dict:
        per_worker = list(per_worker)
        totals: dict[str, int] = {}
        for entry in per_worker:
            for name, value in (entry.get("session") or {}).items():
                totals[name] = totals.get(name, 0) + int(value)
        return {
            "workers": per_worker,
            "aggregate": totals,
            "respawns": self.respawns,
        }

    # ------------------------------------------------------------------
    # submission and routing
    # ------------------------------------------------------------------

    @staticmethod
    def _slot(query: Query) -> int:
        """The routing hash: a stable digest of the canonical form
        (``hash()`` would be salted per process; this must agree between
        a pool and its restarted successor so warm workers see the same
        groups again), taken modulo the alive workers."""
        return stable_digest(canonical_form(query).key)

    def _submit_to(self, worker: _Worker, entry: Entry) -> Future:
        """Caller holds the lock."""
        task_id = next(self._task_ids)
        worker.outstanding[task_id] = entry
        payload = entry.payload
        if entry.query is not None:
            payload = {"query": entry.query, **payload}
        worker.tasks.put((task_id, entry.op, payload))
        return entry.future

    def _place(
        self, entry: Entry, alive: Sequence[_Worker], slot: int | None = None
    ) -> None:
        """Route (or re-route) a task by its own query.  Caller holds
        the lock."""
        if slot is None:
            slot = self._slot(entry.query)
        self._submit_to(alive[slot % len(alive)], entry)

    def submit(
        self, op: str, query: Query, *, future: Future | None = None, **payload: Any
    ) -> Future:
        """Submit one routed task (``evaluate``, ``count`` or ``sql``).
        The worker is chosen by the query's canonical form, so
        isomorphic queries always share a worker — and hence its
        in-memory caches.  If every worker is dead but a replacement is
        being built, the task is parked and routed once the respawn
        resolves, instead of failing a blip the pool recovers from by
        itself."""
        entry = Entry(op, query, payload, future if future is not None else Future())
        slot = self._slot(query)  # outside the lock: first sight is not cheap
        with self._lock:
            alive = [w for w in self._workers if w.alive]
            if self._closed:
                raise PoolClosed("pool is closed")
            if alive:
                self._place(entry, alive, slot)
            elif self._respawns_inflight > 0:
                self._parked.append(entry)
            else:
                raise WorkerCrash("no alive workers")
        return entry.future

    def evaluate(self, query: Query) -> Future:
        """Future Boolean answer for ``query``."""
        return self.submit("evaluate", query)

    def count(self, query: Query) -> Future:
        """Future exact witness count for ``query``."""
        return self.submit("count", query)

    def submit_many(
        self, queries: Sequence[Query], op: str = "evaluate"
    ) -> Future:
        """Non-blocking :meth:`evaluate_many` (see :func:`submit_many`)."""
        return submit_many(self.submit, queries, op)

    def evaluate_many(self, queries: Sequence[Query]) -> list[bool]:
        """Batch-evaluate, one task per canonical group.  Blocks until
        done."""
        return self.submit_many(queries).result()

    def count_many(self, queries: Sequence[Query]) -> list[int]:
        return self.submit_many(queries, "count").result()

    # ------------------------------------------------------------------
    # broadcasts: mutations and stats
    # ------------------------------------------------------------------

    def _broadcast(self, op: str, payload: dict, alive: Sequence[_Worker]) -> list[Future]:
        """Caller holds the lock."""
        return [
            self._submit_to(worker, Entry(op, None, payload, Future()))
            for worker in alive
        ]

    def mutate(self, kind: str, relation: str, t: tuple) -> Future:
        """Broadcast one tuple-level mutation to every worker through
        the logged delta API (warm workers patch their cached reductions
        instead of rebuilding).  The parent's copy is mutated first, so
        the pool's view stays the served view.  Resolves to the list of
        per-worker acks once all alive workers applied it."""
        payload = {"kind": kind, "relation": relation, "tuple": tuple(t)}
        with self._lock:
            if self._closed:
                raise PoolClosed("pool is closed")
            alive = [w for w in self._workers if w.alive]
            if not alive and self._respawns_inflight == 0:
                raise WorkerCrash("no alive workers")
            # with no alive worker but a respawn in flight, applying to
            # the parent's (logged) copy is enough: the delta's version
            # is above the replacement's replay floor, so the replay
            # delivers it — the ack list is simply empty
            self.db.apply_delta(Delta(self.db.version, **payload))
            futures = self._broadcast("mutate", payload, alive)
        return _gather(futures, lambda acks: [a for a in acks if a is not None])

    def stats(self) -> dict:
        """Blocking aggregate of live per-worker stats (see
        :meth:`stats_async`)."""
        return self.stats_async().result()

    def stats_async(self) -> Future:
        """Future ``{"workers": [...], "aggregate": {...}}`` from a
        stats broadcast to every alive worker."""
        with self._lock:
            if self._closed:
                raise PoolClosed("pool is closed")
            alive = [w for w in self._workers if w.alive]
            if not alive:
                raise WorkerCrash("no alive workers")
            futures = self._broadcast("stats", {}, alive)
        return _gather(
            futures,
            lambda values: self._report(
                {"worker": worker.index, **value}
                for worker, value in zip(alive, values)
                if value is not None
            ),
        )

    # ------------------------------------------------------------------
    # the collector: results, graceful exits, crash recovery
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        while True:
            with self._lock:
                conns = {
                    w.conn: w for w in self._workers if w.alive
                }
                respawning = self._respawns_inflight > 0
            if not conns:
                if respawning:
                    # the last worker died but a replacement is being
                    # built — its results will need this thread
                    time.sleep(0.05)
                    continue
                self._all_exited.set()
                return
            for conn in connection_wait(list(conns), timeout=0.5):
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(worker)
                    continue
                self._on_message(worker, message)

    def _on_message(self, worker: _Worker, message: tuple) -> None:
        kind, _worker_id, task_id, value = message
        if kind == "exit":
            with self._lock:
                worker.alive = False
                worker.exited = True
                worker.final_stats = value
            return
        with self._lock:
            entry = worker.outstanding.pop(task_id, None)
            if worker.respawned and not (entry is not None and entry.replay):
                # the replacement answered real routed work: the crash
                # was not a spawn loop — refill the crash-loop budget.
                # (Replayed-delta acks don't count: a worker that only
                # ever catches up on mutations before dying again must
                # still exhaust the budget.)
                worker.respawned = False
                self._respawns_remaining = self._respawn_budget
        if entry is None:  # pragma: no cover - defensive
            return
        if kind == "ok":
            _resolve(entry.future, value)
        else:
            _resolve(entry.future, error=RuntimeError(value))

    def _on_worker_death(self, worker: _Worker) -> None:
        """A worker's pipe hit EOF without a graceful exit: pop its
        registry and settle the entries — routed work is resubmitted to
        survivors (bounded by ``MAX_TASK_CRASHES``: a task that keeps
        killing workers must eventually fail its future, not cycle
        through replacements forever) or parked for the replacement,
        broadcast acks resolve benignly (the dead worker's database copy
        died with it; nothing to apply or report), and futures fail only
        when no worker can ever take them.  The respawn is launched on a
        helper thread (``Process.start`` pickles the whole database; the
        collector must keep draining every other worker's results
        meanwhile)."""
        with self._lock:
            worker.alive = False
            lost = list(worker.outstanding.values())
            worker.outstanding.clear()
            should_respawn = not self._closed and self._respawns_remaining > 0
            if should_respawn:
                self._respawns_remaining -= 1
                self._respawns_inflight += 1
            # the replay floor: every broadcast mutation logged after
            # this version is re-sent to the replacement, so nothing is
            # lost in the registration window (replays are idempotent)
            version_before = self.db.version
            alive = [w for w in self._workers if w.alive]
            # once close() has queued the shutdown sentinels, a
            # survivor's queue ends in a sentinel it will exit at —
            # resubmitted tasks queued behind it would never run and
            # their futures would hang forever; fail them instead
            can_resubmit = bool(alive) and not self._closed

            def resubmit(entry: Entry) -> bool:
                entry.crashes += 1
                if entry.crashes > self.MAX_TASK_CRASHES:
                    _resolve(
                        entry.future,
                        error=WorkerCrash(
                            f"task killed {entry.crashes} workers in a row — "
                            f"not resubmitting it again"
                        ),
                    )
                elif can_resubmit:
                    self._place(entry, alive)
                elif should_respawn:
                    # no survivor today, but a replacement is coming:
                    # park the task until the respawn resolves it
                    self._parked.append(entry)
                else:
                    return False
                return True

            settle_lost(
                lost,
                resubmit,
                WorkerCrash(
                    f"worker {worker.index} died with the task outstanding "
                    f"and no worker can take over "
                    f"({'pool is closing' if self._closed else 'none survive'})"
                ),
            )
        worker.process.join(timeout=5)
        if should_respawn:
            try:
                threading.Thread(
                    target=self._respawn_worker,
                    args=(worker.index, version_before),
                    name=f"repro-pool-respawn-{worker.index}",
                    daemon=True,
                ).start()
            except RuntimeError:  # pragma: no cover - thread exhaustion
                self._respawn_worker(worker.index, version_before)

    def _respawn_worker(self, index: int, version_before: int) -> None:
        """Build and register a replacement worker off the collector
        thread.  The spawn pickles the parent's live database; a
        broadcast mutation racing that pickle can make it raise (or
        leave a delta out of the snapshot), so the spawn is retried
        once and — after registration — every tuple-level delta logged
        since ``version_before`` is re-sent to the replacement.
        Replayed mutations are idempotent under set semantics, so
        overlap with the snapshot is harmless and the replacement
        converges on the served contents.  A failed spawn (or a change
        log trimmed past the replay floor) degrades to the shrunk-pool
        behaviour: parked tasks fail only if no other worker survives
        and no other respawn is in flight."""
        replacement = None
        for attempt in range(2):
            try:
                replacement = self._spawn(index)
                break
            except Exception:
                if attempt == 0:
                    time.sleep(0.05)
        with self._lock:
            # decrement, register and drain under ONE lock hold: the
            # collector's exit check, submit()'s parking check and other
            # respawn threads' drains all see a consistent state
            self._respawns_inflight -= 1
            logged: list | None = []
            if replacement is not None:
                logged = self.db.changes_since(version_before)
                if logged is None:
                    # the log was trimmed mid-spawn: the snapshot cannot
                    # be proven current — better a shrunk pool than a
                    # worker silently serving stale data
                    replacement.process.terminate()
                    replacement = None
            if replacement is not None:
                self.respawns += 1
                replacement.respawned = True
                self._workers[index] = replacement
                for delta in logged or ():
                    if delta.is_tuple_level:
                        payload = {
                            "kind": delta.kind,
                            "relation": delta.relation,
                            "tuple": delta.tuple,
                        }
                        self._submit_to(
                            replacement,
                            Entry("mutate", None, payload, Future(), replay=True),
                        )
                if self._closed:
                    # the pool began closing while we were spawning and
                    # its sentinel sweep could not see the replacement —
                    # queue one now so close() still joins cleanly
                    replacement.tasks.put(None)
            alive = [w for w in self._workers if w.alive]
            can_resubmit = bool(alive) and not self._closed
            parked, self._parked = self._parked, []
            for entry in parked:
                if can_resubmit:
                    self._place(entry, alive)
                elif not self._closed and self._respawns_inflight > 0:
                    # this respawn failed but another is still being
                    # built — leave the task parked for it
                    self._parked.append(entry)
                else:
                    _resolve(
                        entry.future,
                        error=WorkerCrash(
                            f"worker {index} died and no replacement "
                            f"could take its outstanding task"
                        ),
                    )
