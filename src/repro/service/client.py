"""The two clients of the service wire protocol.

:class:`ServiceClient` is the blocking client: one persistent,
pipelined connection that any thread may use, its replies matched to
requests by id by a reader thread.  Scripts and tests use it,
and the coordinator dials each shard node with it
(:class:`~repro.service.remote.RemoteShardNode` is a subclass).
:class:`AsyncServiceClient` is the asyncio client the load generator
uses, matching replies to futures the same way.

Neither client spells a verb out: one method per entry of the verb
table (:data:`~repro.service.protocol.VERBS`) is generated on
:class:`_VerbMethods` from the entry's ``encode`` and result cast, and
each client only says how a frame travels (``_call``).  The
coordinator's :class:`~repro.service.remote.RemoteShardNode` gets its
verbs the same way.

:class:`ServiceClient` talks to the one server it dialed; client-side
routing belongs to :class:`AsyncServiceClient` (loadgen's ``--direct``).
Against a coordinator whose ``ring`` verb advertises shard addresses
(:meth:`~AsyncServiceClient.learn_ring`) it places ``evaluate``/``count``
requests locally on the coordinator's consistent-hash ring, dials the
owning shard directly, and on any shard failure falls back to the router
and re-learns the ring — correctness never depends on the client's ring
view being current, because every shard serves every tenant.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Any, Callable

from ..core.session import canonical_form
from . import protocol
from .pool import Entry, _resolve

__all__ = [
    "AsyncServiceClient",
    "BadQuery",
    "ServiceClient",
    "ServiceError",
    "ShardUnreachable",
]


class ServiceError(RuntimeError):
    """A typed error response from the server."""

    def __init__(self, error: dict):
        super().__init__(f"{error.get('code')}: {error.get('message')}")
        self.code = error.get("code")
        self.message = error.get("message")
        self.details = error


class BadQuery(ServiceError):
    """The server answered ``bad_query``: the request's query text —
    conjunction syntax or SQL — does not parse or compile.  Never
    retryable; :attr:`message` carries the parser diagnostic."""


class ShardUnreachable(ConnectionError):
    """The server a :class:`ServiceClient` dialed cannot be reached:
    dial failure, connection loss mid-request, or (for a shard node) a
    failed health check.  The coordinator maps this to the typed
    ``shard_unreachable`` wire error after failover has been
    attempted."""


#: Error codes that mean "this shard cannot serve you, the router can":
#: the direct-routing path falls back to the coordinator on these.
_FALLBACK_CODES = (
    protocol.ERROR_SHUTTING_DOWN,
    protocol.ERROR_SHARD_UNREACHABLE,
)


def _unwrap(response: dict) -> Any:
    if response.get("ok"):
        return response["result"]
    error = response.get("error") or {"code": "internal"}
    if error.get("code") == protocol.ERROR_BAD_QUERY:
        raise BadQuery(error)
    raise ServiceError(error)


def _ring_view(info: dict) -> tuple[Any, dict[str, tuple[str, int]]]:
    """``(ring, addresses)`` out of a ``ring`` payload: a coordinator
    that advertises shard addresses enables direct dialing, anything
    else disables it (``ring`` is ``None``)."""
    from .ring import HashRing

    addresses = info.get("addresses") or {}
    return (
        HashRing.from_describe(info) if addresses else None,
        {
            name: (str(host), int(port))
            for name, (host, port) in addresses.items()
        },
    )


class _VerbMethods:
    """One method per wire verb, generated below from the verb table:
    ``client.<verb>(*args, **fields)`` encodes ``args`` with the verb's
    ``encode``, lets ``fields`` (``tenant=``, ``deadline_ms=``, an
    optional field by its wire name) ride along, sends the frame
    through the subclass's ``_call`` — blocking or awaitable — and
    casts the result."""


def _verb_method(verb: protocol.Verb):
    def method(self, *args: Any, **fields: Any):
        return self._call(verb, {**verb.encode(*args), **fields})

    method.__name__ = method.__qualname__ = verb.name
    method.__doc__ = (
        f"The ``{verb.name}`` verb: arguments, result and placement are "
        f"listed in :mod:`repro.service.protocol`."
    )
    return method


for _verb in protocol.VERBS.values():
    setattr(_VerbMethods, _verb.name, _verb_method(_verb))


class ServiceClient(_VerbMethods):
    """Blocking client over one persistent, pipelined connection.

    Thread-safe: any thread sends (:meth:`request`, a verb method, or
    :meth:`request_async` for a future), and a daemon reader thread
    matches replies to requests by id, so replies may come out of order
    and a timed-out request's late reply never answers a later one.
    ``timeout`` bounds the dial and each blocking wait; a wait that
    runs out raises :class:`TimeoutError` and forgets its request.
    ``tenant`` — for router-tier servers — is stamped onto every
    request that does not carry its own.

    The pending map is the registry of the connection's failure domain:
    whoever pops an entry owns its resolve — the reader (a reply
    arrived) or :meth:`drain` (the coordinator evicts the node and
    settles the entries itself; a later reply is dropped).  On
    connection loss other than a local :meth:`close`, ``on_down`` fires
    exactly once, from the reader, while the unanswered entries are
    still pending; whatever it leaves behind then fails with
    :class:`ShardUnreachable`, as does every later request."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        tenant: str | None = None,
        on_down: Callable[["ServiceClient"], None] | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant
        self._on_down = on_down
        self._ids = itertools.count(1)
        self._lock = threading.Lock()        # pending map + down state
        self._write_lock = threading.Lock()  # one frame at a time
        # id -> (entry, reshape): the registry of this failure domain
        self._pending: dict[int, tuple[Entry, Callable[[dict], Any] | None]] = {}
        self._down: BaseException | None = None
        self._settled = False  # the loss has been handed over and failed
        self._closing = False
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise ShardUnreachable(
                f"cannot dial {host}:{port}: {error}"
            ) from error
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rwb")
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-client-reader-{host}:{port}",
            daemon=True,
        )
        self._reader.start()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def is_down(self) -> bool:
        return self._down is not None

    def request_async(
        self,
        op: str,
        *,
        entry: Entry | None = None,
        reshape: Callable[[dict], Any] | None = None,
        **fields: Any,
    ) -> Future:
        """Send one request; returns ``entry.future`` (a fresh entry is
        minted when none is given), which the reader resolves with
        ``reshape(response)`` — the raw response dict by default — or
        with the exception ``reshape`` raises.  Never raises and never
        blocks on a dead wire (enqueue-only callers hold the router
        lock): a send failure, or a connection that is already down but
        whose loss is still being handed over, leaves the entry pending
        for whoever settles the loss; once the loss is settled the
        future fails with :class:`ShardUnreachable` at once."""
        if self.tenant is not None:
            fields.setdefault("tenant", self.tenant)
        if entry is None:
            entry = Entry(op, None, fields, Future())
        request_id = next(self._ids)
        # encoded before anything is registered: an unencodable field
        # raises to the caller instead of stranding a pending entry
        line = protocol.dump_line({"id": request_id, "op": op, **fields})
        with self._lock:
            if self._settled:
                _resolve(
                    entry.future,
                    error=ShardUnreachable(
                        f"{self.host}:{self.port} is down: {self._down}"
                    ),
                )
                return entry.future
            self._pending[request_id] = (entry, reshape)
            down = self._down is not None
        if not down:
            try:
                with self._write_lock:
                    self._file.write(line)
                    self._file.flush()
            except (OSError, ValueError):  # ValueError: the file is closed
                # wake the reader with an EOF and let *it* settle the
                # loss: this thread may hold the router lock mid-fan-out,
                # where an eviction must not run re-entrantly
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already disconnected: the loss is under way
        return entry.future

    def request(self, op: str, **fields: Any) -> dict:
        """Send one request and wait ``timeout`` for its raw response
        dict."""
        return self._wait(self.request_async(op, **fields), self.timeout)

    def _wait(self, future: Future, timeout: float | None) -> Any:
        try:
            return future.result(timeout)
        except FutureTimeout:  # not the builtin TimeoutError before 3.11
            with self._lock:
                self._pending = {
                    request_id: pending
                    for request_id, pending in self._pending.items()
                    if pending[0].future is not future
                }
            raise TimeoutError(
                f"no reply from {self.host}:{self.port} within {timeout} s"
            ) from None

    def _call(self, verb: protocol.Verb, fields: dict) -> Any:
        return verb.cast(_unwrap(self.request(verb.name, **fields)))

    def ping(self, timeout: float = 5.0) -> bool:
        """One cheap round-trip (the ``ring`` verb); ``False`` on any
        failure, a typed error included — the health checker's probe."""
        try:
            _unwrap(self._wait(self.request_async("ring"), timeout))
            return True
        except Exception:
            return False

    def drain(self) -> list[Entry]:
        """Pop every unanswered entry: the caller owns their resolve
        from here on (a reply that still arrives is dropped)."""
        with self._lock:
            pending, self._pending = self._pending, {}
        return [entry for entry, _reshape in pending.values()]

    def _read_loop(self) -> None:
        try:
            while True:
                line = self._file.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                response = protocol.parse_line(line)
                response_id = response.get("id")
                if response_id is None:
                    # an id-less typed error means the server could not
                    # frame our request and will drop the connection;
                    # nothing pending can be matched any more
                    message = (response.get("error") or {}).get("message")
                    raise ConnectionError(
                        f"server answered with an id-less error: {message}"
                    )
                with self._lock:
                    entry, reshape = self._pending.pop(response_id, (None, None))
                if entry is None:
                    continue  # drained or timed out: not ours to answer
                try:
                    value = response if reshape is None else reshape(response)
                except Exception as error:
                    _resolve(entry.future, error=error)
                else:
                    _resolve(entry.future, value)
        except Exception as error:
            self._lost(error)

    def _lost(self, error: BaseException) -> None:
        """Mark the connection down exactly once, let ``on_down`` claim
        the unanswered entries (unless this is a local close), then fail
        the ones nobody claimed."""
        with self._lock:
            if self._down is not None:
                return
            self._down = error
            closing = self._closing
        try:
            # unblock a reader parked in readline() BEFORE touching the
            # file object: its buffer lock is held for the whole blocking
            # read, so file.close() would deadlock against it
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self._file.close()
        except OSError:  # pragma: no cover - teardown best-effort
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best-effort
            pass
        if not closing and self._on_down is not None:
            try:
                self._on_down(self)
            except Exception:  # pragma: no cover - callback must not kill reader
                pass
        with self._lock:
            self._settled = True
            unclaimed, self._pending = self._pending, {}
        unreachable = ShardUnreachable(
            f"{self.host}:{self.port} connection lost: {error}"
        )
        for entry, _reshape in unclaimed.values():
            _resolve(entry.future, error=unreachable)

    def close(self) -> None:
        with self._lock:
            self._closing = True
        self._lost(ConnectionError("connection closed locally"))
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=5)


class AsyncServiceClient(_VerbMethods):
    """Pipelining asyncio client: requests resolve out of order, matched
    by id.  Open with :meth:`connect`, or use as an async context
    manager."""

    def __init__(
        self,
        host: str,
        port: int,
        max_line_bytes: int = 1 << 20,
        tenant: str | None = None,
    ):
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self.tenant = tenant
        self._ids = itertools.count(1)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[Any, asyncio.Future] = {}
        self._read_task: asyncio.Task | None = None
        self._loss: ConnectionError | None = None  # the read loop ended
        # client-side routing state (populated by learn_ring)
        self._ring = None
        self._addresses: dict[str, tuple[str, int]] = {}
        self._shard_clients: dict[str, "AsyncServiceClient"] = {}

    async def connect(self) -> "AsyncServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=self.max_line_bytes
        )
        self._read_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        for client in list(self._shard_clients.values()):
            await client.close()
        self._shard_clients.clear()
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._loss = ConnectionError("client closed")
        self._fail_pending(self._loss)

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _fail_pending(self, error: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = protocol.parse_line(line)
                response_id = response.get("id")
                if response_id is None:
                    # the server answers unparseable or oversized
                    # requests with ``id: null`` (and, for an oversized
                    # line, drops the connection): the error cannot be
                    # matched to one request, so *every* pending future
                    # must fail — otherwise a pipelined caller hangs
                    # forever on a future nothing will ever resolve
                    error = response.get("error") or {"code": "internal"}
                    self._fail_pending(ServiceError(error))
                    continue
                future = self._pending.pop(response_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # pragma: no cover - connection teardown
            self._loss = ConnectionError(f"connection lost: {error!r}")
            self._fail_pending(error)
            return
        # EOF: fail whatever is still pending, and every later request
        self._loss = ConnectionError("server closed the connection")
        self._fail_pending(self._loss)

    async def request(self, op: str, **fields: Any) -> dict:
        """Send one request; awaitable response dict (out-of-order
        safe)."""
        assert self._writer is not None, "call connect() first"
        if self._loss is not None:
            # nothing reads the socket any more: a future sent now
            # would never resolve
            raise ConnectionError(str(self._loss))
        if self.tenant is not None:
            fields.setdefault("tenant", self.tenant)
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(
                protocol.dump_line({"id": request_id, "op": op, **fields})
            )
            await self._writer.drain()
        except BaseException:
            # the request never reached the wire: unregister the future
            # so it cannot leak in _pending un-failed (nothing would
            # ever resolve it), and surface the send failure instead
            leaked = self._pending.pop(request_id, None)
            if leaked is not None and not leaked.done():
                leaked.cancel()
            raise
        return await future

    async def _call(self, verb: protocol.Verb, fields: dict) -> Any:
        send = self._routed if verb.placement == protocol.ROUTED else self.request
        return verb.cast(_unwrap(await send(verb.name, **fields)))

    # ------------------------------------------------------------------
    # client-side routing
    # ------------------------------------------------------------------

    async def learn_ring(self) -> dict:
        """Fetch the coordinator's ring topology and — when it
        advertises shard addresses — enable direct dialing: later
        ``evaluate``/``count`` calls go straight to the owning shard,
        falling back to the router on any shard failure."""
        info = await self.ring()
        self._ring, self._addresses = _ring_view(info)
        return info

    async def _direct_target(
        self, query: str
    ) -> tuple[str, "AsyncServiceClient"] | None:
        if self._ring is None:
            return None
        try:  # parse and canonical form are memoized per process
            shard = self._ring.node_for(canonical_form(protocol._parse_text(query)).key)
        except protocol.BadQueryError:
            return None  # the router answers it, typed
        address = self._addresses.get(shard)
        if address is None:
            return None
        client = self._shard_clients.get(shard)
        if client is None:
            client = AsyncServiceClient(
                address[0],
                address[1],
                max_line_bytes=self.max_line_bytes,
                tenant=self.tenant,
            )
            try:
                await client.connect()
            except OSError:
                return None
            self._shard_clients[shard] = client
        return shard, client

    async def _drop_direct(self, shard: str) -> None:
        client = self._shard_clients.pop(shard, None)
        if client is not None:
            await client.close()

    async def _relearn(self) -> None:
        try:
            await self.learn_ring()
        except (OSError, ServiceError):  # pragma: no cover - router gone
            self._ring = None
            self._addresses = {}

    async def _routed(self, op: str, **fields: Any) -> dict:
        query = fields.get("query")
        if isinstance(query, str):
            target = await self._direct_target(query)
            if target is not None:
                shard, client = target
                try:
                    response = await client.request(op, **fields)
                except (ConnectionError, OSError):
                    await self._drop_direct(shard)
                    await self._relearn()
                else:
                    code = (response.get("error") or {}).get("code")
                    if code not in _FALLBACK_CODES:
                        return response
                    await self._drop_direct(shard)
                    await self._relearn()
        return await self.request(op, **fields)

    async def route_request(self, request: dict) -> dict:
        """Issue one wire-shaped request (as the load generator builds
        them), direct-dialing the owning shard for routed verbs when
        the ring is known."""
        fields = {k: v for k, v in request.items() if k != "op"}
        verb = protocol.VERBS.get(request.get("op"))
        if verb is not None and verb.placement == protocol.ROUTED:
            return await self._routed(verb.name, **fields)
        return await self.request(request.get("op"), **fields)
