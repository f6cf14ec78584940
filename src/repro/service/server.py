"""The asyncio front-end: line-delimited JSON over TCP, admission
control, per-request deadlines.

The server owns a :class:`~repro.service.pool.WorkerPool` and bridges
its ``concurrent.futures`` world into asyncio — each admitted request's
pool future calls back onto the event loop to write its reply, so one
loop multiplexes every connection while the workers burn CPU.

Overload is handled by *typed backpressure*, not queueing: the server
admits at most ``max_inflight`` requests at a time and answers the rest
with an ``overloaded`` error immediately, keeping its memory bounded
and its latency honest (a client that can see "overloaded" can back
off; a client stuck in an unbounded queue cannot see anything).  Each
request carries an optional ``deadline_ms`` (defaulting to the server's
``default_deadline_ms``); a request whose deadline elapses is answered
with ``deadline_exceeded`` — the worker-side computation may still
finish and warm the caches for its successors.

Both tiers share one dispatch: a request's verb is looked up in the
verb table (:data:`~repro.service.protocol.VERBS`), the table's schema
decodes its arguments, and :data:`HANDLERS` says what the verb does
with them against a *target* — the pool, or the router with the
request's tenant bound first.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future
from functools import partial
from typing import Any, Callable

from ..core.session import QuerySession
from ..engine.relation import Database
from ..intervals.interval import Interval
from .client import ServiceError, ShardUnreachable
from .pool import PoolClosed, WorkerCrash, WorkerPool, _gather, submit_many, submit_sql
from .router import RouterClosed, ShardRouter, UnknownTenant
from . import protocol
from .protocol import (
    ERROR_BAD_QUERY,
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_SHARD_UNREACHABLE,
    ERROR_SHUTTING_DOWN,
    BadQueryError,
    ProtocolError,
    error_response,
    ok_response,
)

__all__ = ["RouterServer", "ServiceServer"]


# ----------------------------------------------------------------------
# what each verb does
# ----------------------------------------------------------------------


def _sql_guard(fn, *args: Any):
    """Run a SQL compile/explain step, mapping tokenizer/parser/binder
    diagnostics (:class:`~repro.sql.SqlError`) to ``bad_query``."""
    from ..sql import SqlError

    try:
        return fn(*args)
    except SqlError as error:
        raise BadQueryError(str(error)) from error


def _explain(target, text: str) -> dict:
    # runs on the event loop, the one thread driving the database's
    # shared session (see submit_sql)
    return _sql_guard(QuerySession.for_database(target.db).explain_sql, text)


def _mutate(target, kind: str, relation: str, values: tuple) -> Future:
    if kind == "insert":
        _check_tuple_kinds(target.db, relation, values)
    return target.mutate(kind, relation, values)


#: What the serving tier does with each verb's decoded arguments:
#: ``handler(target, *args)``.  A tenant-addressed verb's target is
#: pool-shaped (``db`` / ``submit`` / ``mutate``: a :class:`_PoolTarget`
#: or a :class:`_TenantTarget`); a router-tier verb's target is the
#: :class:`ShardRouter`.  The verb's placement says how the handler
#: runs: ``routed`` and ``broadcast`` handlers return a future, a
#: ``local`` handler's value is the answer, an ``admin`` handler blocks
#: and runs on the router's admin executor.  (``stats`` is the one verb
#: the server itself contributes to: :meth:`ServiceServer._stats`.)
HANDLERS: dict[str, Callable[..., Any]] = {
    "evaluate": lambda target, query: target.submit("evaluate", query),
    "count": lambda target, query: target.submit("count", query),
    "evaluate_many": lambda target, queries: submit_many(target.submit, queries),
    "sql": lambda target, text: _sql_guard(
        submit_sql, target.submit, target.db, text
    ),
    "explain": _explain,
    "mutate": _mutate,
    "attach_tenant": ShardRouter.attach_tenant,
    "detach_tenant": ShardRouter.detach_tenant,
    "reload": ShardRouter.reload,
    "ring": ShardRouter.describe,
    "ring_add": ShardRouter.add_shard,
    "ring_remove": ShardRouter.remove_shard,
    "cache_keys": ShardRouter.cache_keys,
    "cache_fetch": ShardRouter.cache_fetch,
    "cache_push": ShardRouter.cache_push,
}


def _then(future: Future, reshape: Callable[[Any], Any]) -> Future:
    """A future of ``reshape(future.result())`` (a missed deadline may
    cancel it while the first is still running; the late value is then
    dropped)."""
    return _gather([future], lambda done: reshape(done[0]))


def _summarise_acks(acks: list[dict]) -> dict:
    """One client-facing ack out of a pool's per-worker ack list."""
    return {
        "applied": bool(acks and acks[0]["applied"]),
        "version": max((ack["version"] for ack in acks), default=None),
        "workers": len(acks),
    }


class _PoolTarget:
    """The pool tier's target: a :class:`WorkerPool` whose per-worker
    mutation acks are summarised into the one ack a client sees."""

    def __init__(self, pool: WorkerPool):
        self.db = pool.db
        self.submit = pool.submit
        self.stats_async = pool.stats_async
        self._pool = pool

    def mutate(self, kind: str, relation: str, values: tuple) -> Future:
        return _then(self._pool.mutate(kind, relation, values), _summarise_acks)


class _TenantTarget:
    """The router tier's target for a tenant-addressed verb: the router
    with the request's tenant bound first (an unknown tenant raises
    here, before anything is placed)."""

    def __init__(self, router: ShardRouter, tenant: str):
        self.db = router.database(tenant)
        self.submit = partial(router.submit, tenant)
        self.mutate = partial(router.mutate, tenant)


class ServiceServer:
    """Serve a :class:`~repro.service.pool.WorkerPool` over TCP.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  ``max_inflight`` bounds admitted-but-unanswered
    requests across all connections; ``default_deadline_ms`` applies to
    requests that do not carry their own deadline (``None`` disables
    the default deadline entirely).
    """

    #: The tiers whose verbs this server admits (the router tier admits
    #: the router-only verbs too).
    TIERS: tuple[str, ...] = (protocol.POOL,)

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        default_deadline_ms: float | None = 30_000.0,
        max_line_bytes: int = 1 << 20,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.pool = pool
        self._target = None if pool is None else _PoolTarget(pool)
        self._handlers = dict(HANDLERS, stats=self._stats)
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.default_deadline_ms = default_deadline_ms
        self.max_line_bytes = max_line_bytes
        self.counters = {
            "requests": 0,
            "served": 0,
            "errors": 0,
            "overload_rejections": 0,
            "deadline_exceeded": 0,
            "bad_requests": 0,
            "bad_queries": 0,
        }
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopping = False
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_line_bytes,
        )
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections, then close the open ones (their
        in-flight requests are awaited by each handler first)."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        owed: dict[Callable, Future] = {}  # reply writer -> its pool future
        transport = writer.transport
        high_water = transport.get_write_buffer_limits()[1]
        try:
            while True:
                if transport.get_write_buffer_size() > high_water:
                    await writer.drain()  # unread replies pause the reads
                try:
                    line = await reader.readline()
                except ValueError:
                    # a single line exceeded max_line_bytes: the framing
                    # cannot be resynchronized, so answer typed and drop
                    # the connection
                    self.counters["requests"] += 1
                    self.counters["bad_requests"] += 1
                    message = f"request line exceeds {self.max_line_bytes} bytes"
                    response = error_response(None, ERROR_BAD_REQUEST, message)
                    writer.write(protocol.dump_line(response))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                request, rejection = self._admit(line)
                if rejection is not None:
                    writer.write(protocol.dump_line(rejection))
                else:
                    self._route(request, writer, owed)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # server shutdown (or loop teardown): fall through to the
            # drain-and-close below, exiting quietly
            pass
        finally:
            if me is not None:
                self._connections.discard(me)
            try:
                while owed:  # each reply is written before its future's waiter wakes
                    await asyncio.wait([asyncio.wrap_future(f) for f in owed.values()])
            finally:
                writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    def _admit(self, line: bytes) -> tuple[dict | None, dict | None]:
        """Synchronous admission: parse, validate, and apply
        backpressure *before* any work is scheduled.  Returns
        ``(request, None)`` when admitted — the in-flight slot is
        claimed here, synchronously, so a pipelined burst buffered in
        one TCP segment cannot slip past the bound before any task
        runs — or ``(None, response)`` to reject immediately."""
        self.counters["requests"] += 1
        try:
            request = protocol.parse_line(line)
        except ProtocolError as error:
            self.counters["bad_requests"] += 1
            return None, error_response(None, ERROR_BAD_REQUEST, str(error))
        request_id = request.get("id")
        op = request.get("op")
        verb = protocol.VERBS.get(op) if isinstance(op, str) else None
        if verb is None or verb.tier not in self.TIERS:
            self.counters["bad_requests"] += 1
            return None, error_response(
                request_id, ERROR_BAD_REQUEST, f"unknown op {op!r}"
            )
        try:
            self._deadline(request)
        except ProtocolError as error:
            self.counters["bad_requests"] += 1
            return None, error_response(request_id, ERROR_BAD_REQUEST, str(error))
        if self._stopping:
            return None, error_response(
                request_id, ERROR_SHUTTING_DOWN, "server is draining"
            )
        if self._inflight >= self.max_inflight:
            self.counters["overload_rejections"] += 1
            return None, error_response(
                request_id,
                ERROR_OVERLOADED,
                "in-flight window is full; back off and retry",
                inflight=self._inflight,
                max_inflight=self.max_inflight,
            )
        self._inflight += 1
        return request, None

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------

    def _route(self, request: dict, writer: asyncio.StreamWriter, owed: dict) -> None:
        """Dispatch one admitted request.  The pool future's done-callback
        hops onto the loop once to write the reply; a deadline is one
        ``call_later`` that cancels the future.  The first one answers."""
        request_id = request.get("id")
        future = self._execute(request_id, request)
        if isinstance(future, dict):  # failed before any work was placed
            return self._reply(writer, future)
        loop, deadline = asyncio.get_running_loop(), self._deadline(request)

        def finish(timed_out: bool = False) -> None:
            if owed.pop(finish, None) is None:
                return  # already answered
            if timed_out:
                future.cancel()
            elif timer is not None:
                timer.cancel()
            self._reply(writer, self._outcome(request_id, None if timed_out else future))

        def hop(_: Future) -> None:
            try:
                loop.call_soon_threadsafe(finish)
            except RuntimeError:
                pass  # the loop has closed: nobody is left to answer

        owed[finish] = future
        future.add_done_callback(hop)
        timer = None if deadline is None else loop.call_later(deadline, finish, True)

    def _reply(self, writer: asyncio.StreamWriter, response: dict) -> None:
        """Answer an admitted request: the one place its in-flight slot
        (claimed by :meth:`_admit`) is released and its outcome counted."""
        self._inflight -= 1
        self.counters["served" if response["ok"] else "errors"] += 1
        writer.write(protocol.dump_line(response))

    def _deadline(self, request: dict) -> float | None:
        deadline_ms = request.get("deadline_ms", self.default_deadline_ms)
        if deadline_ms is None:
            return None
        if not protocol.is_finite_number(deadline_ms):
            raise ProtocolError(
                f"deadline_ms must be a number, got {deadline_ms!r}"
            )
        return max(float(deadline_ms), 0.0) / 1e3

    def _execute(self, request_id: Any, request: dict) -> Future | dict:
        """The dispatch phase: the request's future, or its error reply."""
        verb = protocol.VERBS[request["op"]]
        try:
            return self._dispatch(verb, request)
        except ShardUnreachable as error:
            return error_response(request_id, ERROR_SHARD_UNREACHABLE, str(error))
        except BadQueryError as error:
            # the request framing was fine; its query text was not —
            # typed separately so clients can surface the diagnostic
            self.counters["bad_queries"] += 1
            return error_response(request_id, ERROR_BAD_QUERY, str(error))
        except (ProtocolError, ValueError, KeyError, TypeError) as error:
            # KeyError: an unknown tenant.  TypeError: a malformed
            # payload no decoder anticipated — an unanswered request
            # would hang the client forever
            self.counters["bad_requests"] += 1
            return error_response(request_id, ERROR_BAD_REQUEST, str(error))
        except (PoolClosed, RouterClosed):
            return error_response(
                request_id, ERROR_SHUTTING_DOWN, "the serving tier is closed"
            )
        except WorkerCrash as error:
            return error_response(request_id, ERROR_INTERNAL, str(error))
        except Exception as error:  # still answered: a silent request hangs
            return error_response(request_id, ERROR_INTERNAL, f"{type(error).__name__}: {error}")

    def _outcome(self, request_id: Any, future: Future | None) -> dict:
        """The completion phase: ``future``'s reply (``None``: a missed deadline)."""
        try:
            if future is None:
                raise asyncio.TimeoutError
            result = future.result()
        except asyncio.TimeoutError:
            self.counters["deadline_exceeded"] += 1
            return error_response(
                request_id,
                ERROR_DEADLINE,
                "deadline elapsed before a worker answered",
            )
        except ShardUnreachable as error:
            # failover already ran (the eviction resubmits what it can);
            # this request's work could not reach any surviving shard
            return error_response(request_id, ERROR_SHARD_UNREACHABLE, str(error))
        except ServiceError as error:
            # a remote shard node answered with a typed error: pass its
            # code through instead of laundering it as `internal`
            return error_response(
                request_id,
                error.code or ERROR_INTERNAL,
                error.message or str(error),
            )
        except (UnknownTenant, ValueError) as error:
            # an admin operation that failed a precondition (duplicate
            # attach, unknown shard, malformed entry) is the client's
            # mistake, not an internal fault
            self.counters["bad_requests"] += 1
            return error_response(
                request_id, ERROR_BAD_REQUEST, f"{type(error).__name__}: {error}"
            )
        except (WorkerCrash, PoolClosed, RouterClosed) as error:
            return error_response(request_id, ERROR_INTERNAL, str(error))
        except Exception as error:
            return error_response(
                request_id, ERROR_INTERNAL, f"{type(error).__name__}: {error}"
            )
        return ok_response(request_id, result)

    def _bind(self, verb: protocol.Verb, request: dict):
        """The target ``verb``'s handler runs against."""
        return self._target

    def _dispatch(self, verb: protocol.Verb, request: dict) -> Future:
        """Turn one admitted request into a future of its result.
        Raises ``ProtocolError``/``BadQueryError`` for malformed
        payloads."""
        args = verb.decode(request)
        target = self._bind(verb, request)
        handler = self._handlers[verb.name]
        if verb.placement == protocol.ADMIN:
            return target.admin(handler, target, *args)
        if verb.placement == protocol.LOCAL:
            done: Future = Future()
            done.set_result(handler(target, *args))
            return done
        return handler(target, *args)

    def _stats(self, target) -> Future:
        """The target's stats with this server's own counters on top."""
        return _then(
            target.stats_async(),
            lambda stats: {
                "server": dict(self.counters, inflight=self._inflight),
                **stats,
            },
        )


class RouterServer(ServiceServer):
    """Serve a :class:`~repro.service.router.ShardRouter` over the same
    wire protocol and the same dispatch, admitting the router-tier
    verbs too: every query/mutation request carries a ``tenant`` field,
    which is bound first, and the admin verbs (``attach_tenant``/
    ``detach_tenant``/``reload``/``ring_add``/``ring_remove``/``ring``
    and the cache-shipping verbs) manage tenancy and the ring under
    live traffic.  Slow admin operations run on the router's serial
    admin executor, so the event loop keeps multiplexing query traffic
    while a shard spawns or a tenant hot-reloads."""

    TIERS = (protocol.POOL, protocol.ROUTER)

    def __init__(self, router: ShardRouter, **server_options: Any):
        super().__init__(pool=None, **server_options)  # type: ignore[arg-type]
        self.router = router

    def _bind(self, verb: protocol.Verb, request: dict):
        if not verb.tenant:
            return self.router
        return _TenantTarget(self.router, protocol.TENANT.read(request))


def _check_tuple_kinds(db: Database, relation: str, values: tuple) -> None:
    """Reject an insert whose value kinds (interval vs. scalar per
    position) contradict the relation's existing tuples.  The database
    layer only checks arity, so without this gate one malformed mutate
    would be applied cluster-wide and poison every later query over the
    relation."""
    if relation not in db:
        raise ProtocolError(f"unknown relation {relation!r}")
    tuples = db[relation].tuples
    if not tuples:
        return  # no basis for a kind check on an empty relation
    sample = next(iter(tuples))
    if len(values) == len(sample):  # arity mismatch raises downstream
        for position, (value, reference) in enumerate(zip(values, sample)):
            if isinstance(value, Interval) != isinstance(
                reference, Interval
            ):
                raise ProtocolError(
                    f"tuple position {position} of {relation!r} must "
                    f"be {'an interval' if isinstance(reference, Interval) else 'a scalar'}"
                )
