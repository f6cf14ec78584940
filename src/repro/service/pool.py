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

Failure model: workers are monitored through their result pipes.  A
worker that dies mid-task (crash, OOM-kill) is detected by EOF; its
outstanding ``evaluate``/``count`` tasks are resubmitted to surviving
workers — every future resolves exactly once, with no lost or duplicated
answers.  The dead worker is then **respawned** in place (the parent
keeps its database copy current by replaying every broadcast mutation,
so the replacement sees the served contents), restoring the pool to
full strength instead of shrinking it; over a shared ``cache_dir`` the
replacement warms from the persistent reduction cache and performs zero
forward reductions.  ``respawn=False`` (or an exhausted
``max_respawns`` budget — a crash-*loop* guard: each respawn spends a
unit, a replacement's first answer refills it, so only rapid successive
crash-respawn cycles exhaust it) restores the old shrinking behaviour.
When the last worker dies, outstanding futures fail with
:class:`WorkerCrash`.

The pool uses the ``spawn`` start method by default: it is safe in
threaded parents (the asyncio server, the collector) and exercises the
cross-process stability of the content-addressed cache for real — a
spawned worker shares no interpreter state, only the cache directory.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Literal, Sequence

from ..core.reduction_cache import ReductionCache
from ..core.session import QuerySession, canonical_form
from ..engine.relation import Database
from ..queries.query import Query

__all__ = ["PoolClosed", "WorkerCrash", "WorkerPool"]


class WorkerCrash(RuntimeError):
    """Every worker died before the task could complete."""


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


class PoolClosed(RuntimeError):
    """The pool no longer accepts work."""


def _route_digest(key: object) -> int:
    """A stable integer digest of a canonical-form key, the routing
    hash.  ``hash()`` would be salted per process; this must agree
    between a pool and its restarted successor so warm workers see the
    same groups again."""
    raw = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(raw[:8], "big")


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------


def _worker_execute(
    session: QuerySession, db: Database, op: str, payload: dict
) -> Any:
    if op == "evaluate":
        return bool(
            session.evaluate(payload["query"], strategy=payload["strategy"])
        )
    if op == "count":
        return int(session.count(payload["query"]))
    if op == "mutate":
        kind, relation, t = (
            payload["kind"],
            payload["relation"],
            payload["tuple"],
        )
        if kind == "insert":
            delta = db.insert(relation, t)
        elif kind == "delete":
            delta = db.delete(relation, t)
        else:
            raise ValueError(f"unknown mutation kind {kind!r}")
        return {"applied": delta is not None, "version": db.version}
    if op == "sql":
        from repro.sql import compile_sql, run_program

        # one single-disjunct SQL text per task: recompile against the
        # worker's own database (schemas may differ from the submitter's
        # view only in statistics, never in shape) and run through the
        # session so SQL plans and answers share its memoization.
        return run_program(compile_sql(payload["sql"], db), session)
    if op == "stats":
        return _worker_stats(session)
    raise ValueError(f"unknown op {op!r}")


def _worker_stats(session: QuerySession) -> dict:
    return {
        "pid": os.getpid(),
        "session": session.stats.as_dict(),
        "cache": session.cache.stats() if session.cache is not None else None,
    }


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
    session = QuerySession(
        db,
        cache_dir=options.get("cache_dir"),
        answer_cache_size=options.get("answer_cache_size", 1024),
        cache_max_bytes=options.get("cache_max_bytes"),
        answer_admission_min_intervals=options.get(
            "answer_admission_min_intervals", 0
        ),
        cache_namespace=options.get("cache_namespace"),
    )
    try:
        while True:
            task = tasks.get()
            if task is None:
                results.send(("exit", worker_id, None, _worker_stats(session)))
                return
            task_id, op, payload = task
            try:
                value = _worker_execute(session, db, op, payload)
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
        self.outstanding: dict[int, tuple[str, dict]] = {}
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
        answer_admission_min_intervals: int = 0,
        cache_namespace: str | None = None,
        strategy: str = "reduction",
        start_method: Literal["spawn", "fork", "forkserver"] = "spawn",
        respawn: bool = True,
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
        if answer_admission_min_intervals < 0:
            raise ValueError(
                "answer_admission_min_intervals must be non-negative"
            )
        if cache_max_bytes is not None and cache_max_bytes < 0:
            raise ValueError("cache_max_bytes must be non-negative")
        if cache_namespace is not None and not ReductionCache.NAMESPACE_PATTERN.match(
            cache_namespace
        ):
            raise ValueError(f"invalid cache namespace {cache_namespace!r}")
        self.db = db
        self.strategy = strategy
        self._options = {
            "cache_dir": os.fspath(cache_dir) if cache_dir is not None else None,
            "answer_cache_size": answer_cache_size,
            "cache_max_bytes": cache_max_bytes,
            "answer_admission_min_intervals": answer_admission_min_intervals,
            "cache_namespace": cache_namespace,
        }
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._task_ids = itertools.count(1)
        self._futures: dict[int, Future] = {}
        self._respawn = respawn
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
        # routed tasks submitted while no worker is alive but a
        # replacement is being built — routed (or failed) when the
        # in-flight respawn resolves
        self._parked: list[tuple[str, dict, Future]] = []
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
        return self._final_report()

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

    def _final_report(self) -> dict:
        with self._lock:
            per_worker = [
                {"worker": w.index, **(w.final_stats or {})}
                for w in self._workers
                if w.final_stats is not None
            ]
        return {
            "workers": per_worker,
            "aggregate": _sum_session_stats(per_worker),
            "respawns": self.respawns,
        }

    # ------------------------------------------------------------------
    # submission and routing
    # ------------------------------------------------------------------

    def _route(self, key: object, alive: Sequence[_Worker]) -> _Worker:
        return alive[_route_digest(key) % len(alive)]

    def _submit_to(
        self, worker: _Worker, op: str, payload: dict, future: Future
    ) -> None:
        """Caller holds the lock."""
        task_id = next(self._task_ids)
        self._futures[task_id] = future
        worker.outstanding[task_id] = (op, payload)
        worker.tasks.put((task_id, op, payload))

    def submit(self, op: str, query: Query, **payload: Any) -> Future:
        """Submit one routed task (``evaluate`` or ``count``).  The
        worker is chosen by the query's canonical form, so isomorphic
        queries always share a worker — and hence its in-memory caches.
        If every worker is dead but a replacement is being built, the
        task is parked and routed once the respawn resolves, instead of
        failing a blip the pool recovers from by itself."""
        form_key = canonical_form(query).key
        payload = {"query": query, **payload}
        if op == "evaluate":
            payload.setdefault("strategy", self.strategy)
        future: Future = Future()
        with self._lock:
            alive = [w for w in self._workers if w.alive]
            if self._closed:
                raise PoolClosed("pool is closed")
            if not alive:
                if self._respawns_inflight > 0:
                    self._parked.append((op, payload, future))
                    return future
                raise WorkerCrash("no alive workers")
            self._submit_to(self._route(form_key, alive), op, payload, future)
        return future

    def evaluate(self, query: Query) -> Future:
        """Future Boolean answer for ``query``."""
        return self.submit("evaluate", query)

    def count(self, query: Query) -> Future:
        """Future exact witness count for ``query``."""
        return self.submit("count", query)

    def evaluate_many(self, queries: Sequence[Query]) -> list[bool]:
        """Batch-evaluate: the batch is grouped by canonical form in the
        parent, one task per group is routed to the group's worker, and
        every member receives its group's answer.  Blocks until done."""
        return self._many(queries, "evaluate")

    def count_many(self, queries: Sequence[Query]) -> list[int]:
        return self._many(queries, "count")

    def submit_many(
        self, queries: Sequence[Query], op: str = "evaluate"
    ) -> Future:
        """Non-blocking :meth:`evaluate_many`: one future resolving to
        the full, order-preserving answer list (the async server awaits
        this)."""
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(queries):
            groups.setdefault(canonical_form(query).key, []).append(i)
        futures = [
            self.submit(op, queries[indices[0]]) for indices in groups.values()
        ]
        result: Future = Future()

        def assemble(values: list) -> list:
            answers: list = [None] * len(queries)
            for indices, value in zip(groups.values(), values):
                for i in indices:
                    answers[i] = value
            return answers

        _gather(futures, result, assemble)
        return result

    def _many(self, queries: Sequence[Query], op: str) -> list:
        return self.submit_many(queries, op).result()

    # ------------------------------------------------------------------
    # broadcasts: mutations and stats
    # ------------------------------------------------------------------

    def mutate(self, kind: str, relation: str, t: tuple) -> Future:
        """Broadcast one tuple-level mutation to every worker through
        the logged delta API (warm workers patch their cached reductions
        instead of rebuilding).  The parent's copy is mutated first, so
        the pool's view stays the served view.  Resolves to the list of
        per-worker acks once all alive workers applied it."""
        if kind not in ("insert", "delete"):
            raise ValueError(f"unknown mutation kind {kind!r}")
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
            if kind == "insert":
                self.db.insert(relation, payload["tuple"])
            else:
                self.db.delete(relation, payload["tuple"])
            futures: list[Future] = []
            for worker in alive:
                future: Future = Future()
                self._submit_to(worker, "mutate", payload, future)
                futures.append(future)
        result: Future = Future()
        _gather(futures, result, lambda acks: [a for a in acks if a is not None])
        return result

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
            pairs: list[tuple[int, Future]] = []
            for worker in alive:
                future: Future = Future()
                self._submit_to(worker, "stats", {}, future)
                pairs.append((worker.index, future))
        result: Future = Future()

        def assemble(values: list) -> dict:
            per_worker = [
                {"worker": index, **value}
                for (index, _), value in zip(pairs, values)
                if value is not None
            ]
            return {
                "workers": per_worker,
                "aggregate": _sum_session_stats(per_worker),
                "respawns": self.respawns,
            }

        _gather([f for _, f in pairs], result, assemble)
        return result

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
            if worker.respawned and not (
                entry is not None and entry[1].get("_replay")
            ):
                # the replacement answered real routed work: the crash
                # was not a spawn loop — refill the crash-loop budget.
                # (Replayed-delta acks don't count: a worker that only
                # ever catches up on mutations before dying again must
                # still exhaust the budget.)
                worker.respawned = False
                self._respawns_remaining = self._respawn_budget
            future = self._futures.pop(task_id, None)
        if future is None:  # pragma: no cover - defensive
            return
        if kind == "ok":
            _resolve(future, value)
        else:
            _resolve(future, error=RuntimeError(value))

    def _on_worker_death(self, worker: _Worker) -> None:
        """A worker's pipe hit EOF without a graceful exit: resubmit its
        outstanding routed work to survivors (bounded by
        ``MAX_TASK_CRASHES`` — a task that keeps killing workers must
        eventually fail its future, not cycle through replacements
        forever), resolve broadcast acks, launch the respawn on a helper
        thread (``Process.start`` pickles the whole database; the
        collector must keep draining every other worker's results
        meanwhile), and fail futures only when no worker can ever take
        them."""
        with self._lock:
            worker.alive = False
            orphaned = dict(worker.outstanding)
            worker.outstanding.clear()
            should_respawn = (
                self._respawn
                and not self._closed
                and self._respawns_remaining > 0
            )
            if should_respawn:
                self._respawns_remaining -= 1
                self._respawns_inflight += 1
            # the replay floor: every broadcast mutation logged after
            # this version is re-sent to the replacement, so nothing is
            # lost in the registration window (replays are idempotent)
            version_before = getattr(self.db, "version", 0)
            alive = [w for w in self._workers if w.alive]
            # once close() has queued the shutdown sentinels, a
            # survivor's queue ends in a sentinel it will exit at —
            # resubmitted tasks queued behind it would never run and
            # their futures would hang forever; fail them instead
            can_resubmit = bool(alive) and not self._closed
            resubmit: list[tuple[str, dict, Future]] = []
            held: list[tuple[str, dict, Future]] = []
            for task_id, (op, payload) in orphaned.items():
                future = self._futures.pop(task_id, None)
                if future is None:
                    continue
                if op in ("mutate", "stats"):
                    # the dead worker's database copy died with it;
                    # nothing to apply or report — the broadcast gather
                    # drops the None
                    _resolve(future, None)
                    continue
                crashes = payload.get("_crashes", 0) + 1
                if crashes > self.MAX_TASK_CRASHES:
                    _resolve(
                        future,
                        error=WorkerCrash(
                            f"task killed {crashes} workers in a row — "
                            f"not resubmitting it again"
                        ),
                    )
                    continue
                payload["_crashes"] = crashes
                if can_resubmit:
                    resubmit.append((op, payload, future))
                elif should_respawn:
                    # no survivor today, but a replacement is coming:
                    # park the task until the respawn resolves it
                    held.append((op, payload, future))
                else:
                    _resolve(
                        future,
                        error=WorkerCrash(
                            f"worker {worker.index} died with the task "
                            f"outstanding and no worker can take over "
                            f"({'pool is closing' if self._closed else 'none survive'})"
                        ),
                    )
            for op, payload, future in resubmit:
                form_key = canonical_form(payload["query"]).key
                self._submit_to(
                    self._route(form_key, alive), op, payload, future
                )
        worker.process.join(timeout=5)
        if should_respawn:
            try:
                threading.Thread(
                    target=self._respawn_worker,
                    args=(worker.index, version_before, held),
                    name=f"repro-pool-respawn-{worker.index}",
                    daemon=True,
                ).start()
            except RuntimeError:  # pragma: no cover - thread exhaustion
                self._respawn_worker(worker.index, version_before, held)

    def _respawn_worker(
        self,
        index: int,
        version_before: int,
        held: list[tuple[str, dict, Future]],
    ) -> None:
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
        behaviour: held tasks fail only if no other worker survives and
        no other respawn is in flight."""
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
            deltas: list = []
            if replacement is not None:
                changes = getattr(self.db, "changes_since", None)
                logged = (
                    changes(version_before) if changes is not None else []
                )
                if logged is None:
                    # the log was trimmed mid-spawn: the snapshot cannot
                    # be proven current — better a shrunk pool than a
                    # worker silently serving stale data
                    replacement.process.terminate()
                    replacement = None
                else:
                    deltas = [d for d in logged if d.is_tuple_level]
            if replacement is not None:
                self.respawns += 1
                replacement.respawned = True
                self._workers[index] = replacement
                for delta in deltas:
                    self._submit_to(
                        replacement,
                        "mutate",
                        {
                            "kind": delta.kind,
                            "relation": delta.relation,
                            "tuple": delta.tuple,
                            # catch-up, not proof of health: must not
                            # refill the crash-loop budget (and the ack
                            # is fire-and-forget)
                            "_replay": True,
                        },
                        Future(),
                    )
                if self._closed:
                    # the pool began closing while we were spawning and
                    # its sentinel sweep could not see the replacement —
                    # queue one now so close() still joins cleanly
                    replacement.tasks.put(None)
            alive = [w for w in self._workers if w.alive]
            can_resubmit = bool(alive) and not self._closed
            parked, self._parked = self._parked, []
            for op, payload, future in [*held, *parked]:
                if can_resubmit:
                    form_key = canonical_form(payload["query"]).key
                    self._submit_to(
                        self._route(form_key, alive), op, payload, future
                    )
                elif not self._closed and self._respawns_inflight > 0:
                    # this respawn failed but another is still being
                    # built — leave the task parked for it
                    self._parked.append((op, payload, future))
                else:
                    _resolve(
                        future,
                        error=WorkerCrash(
                            f"worker {index} died and no replacement "
                            f"could take its outstanding task"
                        ),
                    )


def _gather(futures: list[Future], result: Future, assemble) -> None:
    """Resolve ``result`` with ``assemble([f.result() for f in
    futures])`` once every future is done (first exception wins)."""
    remaining = len(futures)
    if remaining == 0:
        result.set_result(assemble([]))
        return
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


def _sum_session_stats(per_worker: list[dict]) -> dict:
    totals: dict[str, int] = {}
    for entry in per_worker:
        for name, value in (entry.get("session") or {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals
