"""Clients for the service wire protocol.

:class:`ServiceClient` is the blocking client — one socket, one request
at a time — for scripts, tests and the CLI.  :class:`AsyncServiceClient`
is the asyncio client the load generator uses; it pipelines: many
requests may be in flight on one connection, matched back to their
futures by request ``id``.

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
from typing import Any

from . import protocol

__all__ = [
    "AsyncServiceClient",
    "BadQuery",
    "ServiceClient",
    "ServiceError",
    "StaleConnection",
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


class StaleConnection(ConnectionError):
    """The blocking client's connection can no longer be trusted.

    After a ``socket.timeout`` mid-``readline`` the server's (late)
    response is still in flight: reusing the socket would read it as
    the answer to the *next* request, silently desynchronizing the
    framing.  The client therefore marks itself broken and raises this
    typed error on any further use — open a new client instead."""


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


def _canonical_key(query: str, cache: dict[str, Any]) -> Any | None:
    """The canonical-form key of ``query`` text (memoized), or ``None``
    when the text does not parse — then the router answers (typed) and
    no direct dial is attempted."""
    if query in cache:
        return cache[query]
    try:
        from ..core.session import canonical_form
        from ..queries.parser import parse_query

        key = canonical_form(parse_query(query)).key
    except Exception:
        key = None
    if len(cache) < 4096:  # bounded memo; loadgen reuses few variants
        cache[query] = key
    return key


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
    """Blocking line-protocol client.

    ``tenant`` — for router-tier servers — is stamped onto every
    request that does not carry its own, so one client object speaks
    for one tenant without repeating it per call.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        tenant: str | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        self._broken: str | None = None

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # a timed-out socket may fail its flush-on-close
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def request(self, op: str, **fields: Any) -> dict:
        """Send one request, return the raw response dict.

        A ``socket.timeout`` mid-read leaves the late response in
        flight — the connection's framing can never be trusted again,
        so the client marks itself broken and every later call raises
        :class:`StaleConnection` instead of silently returning the
        previous request's answer."""
        if self._broken is not None:
            raise StaleConnection(self._broken)
        if self.tenant is not None:
            fields.setdefault("tenant", self.tenant)
        message = {"id": next(self._ids), "op": op, **fields}
        try:
            self._file.write(protocol.dump_line(message))
            self._file.flush()
            line = self._file.readline()
        except TimeoutError:
            self._broken = (
                f"request {message['id']} timed out mid-response; the "
                f"late reply would desynchronize the framing — open a "
                f"new client"
            )
            raise
        except OSError:
            self._broken = "the connection failed mid-request"
            raise
        if not line:
            self._broken = "server closed the connection"
            raise ConnectionError("server closed the connection")
        return protocol.parse_line(line)

    def _call(self, verb: protocol.Verb, fields: dict) -> Any:
        return verb.cast(_unwrap(self.request(verb.name, **fields)))


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
        # client-side routing state (populated by learn_ring)
        self._ring = None
        self._addresses: dict[str, tuple[str, int]] = {}
        self._shard_clients: dict[str, "AsyncServiceClient"] = {}
        self._key_cache: dict[str, Any] = {}

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
        self._fail_pending(ConnectionError("client closed"))

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
            self._fail_pending(error)
            return
        # EOF: fail whatever is still pending
        self._fail_pending(ConnectionError("server closed the connection"))

    async def request(self, op: str, **fields: Any) -> dict:
        """Send one request; awaitable response dict (out-of-order
        safe)."""
        assert self._writer is not None, "call connect() first"
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
        key = _canonical_key(query, self._key_cache)
        if key is None:
            return None
        shard = self._ring.node_for(key)
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
