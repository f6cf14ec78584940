"""Remote shard nodes: the router tier across machine boundaries.

PR 6's :class:`~repro.service.router.ShardRouter` proved placement,
tenancy, replication and hot-reload semantics over worker pools inside
one process tree.  This module distributes it: a shard node is a
standalone ``RouterServer``-speaking OS process (``repro shard
--listen``), and the coordinator dials it over the existing JSON-lines
protocol instead of owning its worker pools — the verb table already
ships databases and mutations, so attach/reload/mutate replication
become wire calls.

Three pieces:

* :class:`ShardConnection` — one persistent, pipelined TCP connection
  to a shard node, and the **one registry** of its failure domain: a
  connection is what fails, so the pending map holds every
  :class:`~repro.service.pool.Entry` in flight on it, whichever tenant
  it belongs to.  Thread-safe: any thread issues requests; a daemon
  reader thread matches responses back to their entries by id and
  resolves the caller's future directly.  Whoever pops an entry owns
  its resolve: the reader (a reply arrived), or :meth:`~ShardConnection
  .drain` (the coordinator evicts the node and settles the entries
  itself — a later reply finds nothing and is dropped).  On connection
  loss ``on_down`` fires exactly once, *before* anything is failed, so
  the coordinator can drain and resubmit; whatever nobody claimed then
  fails with the typed :class:`ShardUnreachable`.

* :class:`RemoteShardNode` — the coordinator-side handle for one shard
  process: that connection under the shard's ring name, plus one
  blocking method per verb, generated from the verb table.  It is the
  remote kind of the router's shard seam: attach/swap/detach ship a
  tenant's snapshot or purge it over the tenant verbs, and ``warm``
  fills a joining node's per-node cache directory through the
  content-addressed cache-shipping verbs.

* :class:`RemoteShardPool` — the :class:`~repro.service.pool.Pool`
  contract over one (shard node, tenant) pair, so the router's routing,
  mutation fan-out and stats paths work unchanged against remote
  backends.  It keeps no registry of its own: it encodes a task into a
  frame and an entry (stamped with its tenant) and hands both to the
  connection.  Exactly-once futures across the wire follow from the
  connection's pop rule — the router's failover drains the dead node
  and resubmits routed tasks to a survivor *on the original future*;
  an entry whose tenant was detached meanwhile finds no pool and fails
  typed, never hangs.

:func:`spawn_shard_process` is the test/CI helper that launches a real
shard OS process (own cache directory, own interpreter) and parses its
startup line for the bound address.
"""

from __future__ import annotations

import itertools
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from ..queries.query import Query
from . import protocol
from .client import ServiceError, _VerbMethods, _unwrap
from .pool import Entry, PoolClosed, _resolve

__all__ = [
    "RemoteShardNode",
    "RemoteShardPool",
    "ShardConnection",
    "ShardProcess",
    "ShardUnreachable",
    "spawn_shard_process",
]


class ShardUnreachable(ConnectionError):
    """A remote shard node cannot be reached: dial failure, connection
    loss mid-request, or a failed health check.  The coordinator maps
    this to the typed ``shard_unreachable`` wire error after failover
    has been attempted."""


# ----------------------------------------------------------------------
# the pipelined connection
# ----------------------------------------------------------------------


class ShardConnection:
    """One persistent, pipelined blocking-socket connection to a shard.

    Many requests may be in flight at once; responses resolve their
    futures out of order, matched by id.  ``on_down`` (if given) fires
    exactly once, from the reader thread, when the connection is lost
    for any reason other than a local :meth:`close` — while the
    unanswered entries are still pending, so the callback can
    :meth:`drain` and re-place them; what it leaves behind fails with
    :class:`ShardUnreachable` as soon as it returns."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        on_down: Callable[["ShardConnection"], None] | None = None,
    ):
        self.host = host
        self.port = port
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
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as error:
            raise ShardUnreachable(
                f"cannot dial shard at {host}:{port}: {error}"
            ) from error
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rwb")
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-shard-reader-{host}:{port}",
            daemon=True,
        )
        self._reader.start()

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
                        f"shard {self.host}:{self.port} is down: {self._down}"
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

    def request(self, op: str, timeout: float | None = 60.0, **fields: Any):
        """Blocking request; unwraps the response (raising
        :class:`~repro.service.client.ServiceError` on a typed error
        response, :class:`ShardUnreachable` on connection loss)."""
        return self.request_async(op, reshape=_unwrap, **fields).result(timeout)

    def ping(self, timeout: float = 5.0) -> bool:
        """One cheap round-trip (the ``ring`` verb); ``False`` on any
        failure — the health checker's probe."""
        try:
            self.request("ring", timeout=timeout)
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
                    raise ConnectionError("shard closed the connection")
                response = protocol.parse_line(line)
                response_id = response.get("id")
                if response_id is None:
                    # an id-less typed error means the shard could not
                    # frame our request and will drop the connection;
                    # nothing pending can be matched any more
                    message = (response.get("error") or {}).get("message")
                    raise ConnectionError(
                        f"shard answered with an id-less error: {message}"
                    )
                with self._lock:
                    entry, reshape = self._pending.pop(response_id, (None, None))
                if entry is None:
                    continue  # drained: whoever popped it owns it
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
            f"shard {self.host}:{self.port} connection lost: {error}"
        )
        for entry, _reshape in unclaimed.values():
            _resolve(entry.future, error=unreachable)

    def close(self) -> None:
        with self._lock:
            self._closing = True
        self._lost(ConnectionError("connection closed locally"))
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=5)


# ----------------------------------------------------------------------
# the coordinator-side node handle
# ----------------------------------------------------------------------


class RemoteShardNode(ShardConnection, _VerbMethods):
    """One remote shard process, as the coordinator sees it — the
    remote kind of the router's shard seam (see
    :mod:`repro.service.router`; ``_LocalShard`` is the in-process
    kind).  It is its pipelined connection under the shard's ring name
    (``on_down`` receives the node; :meth:`drain` is the registry of its
    failure domain, :meth:`ping` the health probe), plus one blocking
    method per verb, generated from the verb table.  The seam methods
    are written over those verbs: :meth:`attach` ships a tenant's
    snapshot, :meth:`swap` reloads it (the node swaps its own pools, so
    the coordinator's pool serves on), :meth:`detach` purges the node's
    own cache, :meth:`warm` fills it from donor nodes.  A snapshot
    carries its wire encoding, computed once however many nodes receive
    it."""

    #: generous: attach/reload ship whole database snapshots
    ADMIN_TIMEOUT = 300.0

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        on_down: Callable[["RemoteShardNode"], None] | None = None,
    ):
        self.name = name  # before the reader starts: on_down may need it
        super().__init__(host, port, connect_timeout, on_down)

    def _call(self, verb: protocol.Verb, fields: dict) -> Any:
        return verb.cast(
            self.request(verb.name, timeout=self.ADMIN_TIMEOUT, **fields)
        )

    def attach(self, tenant: str, snapshot: Any) -> "RemoteShardPool":
        self.attach_tenant(tenant, snapshot.encoded)
        return RemoteShardPool(self, tenant)

    def swap(
        self, tenant: str, snapshot: Any, pool: "RemoteShardPool"
    ) -> "RemoteShardPool":
        self.reload(tenant, snapshot.encoded)
        return pool

    def detach(self, tenant: str, purge: bool = True) -> int:
        """The node's ``purged`` count; a dead or dying node has
        nothing left to purge."""
        try:
            return int(self.detach_tenant(tenant, purge=purge).get("purged") or 0)
        except (ShardUnreachable, ServiceError):
            return 0

    def warm(self, donors: Sequence["RemoteShardNode"]) -> int:
        """Ship every cache entry a donor holds and this node lacks,
        content-addressed and integrity-verified (``cache_keys`` →
        ``cache_fetch`` → ``cache_push``); returns how many.  Warming is
        an optimisation, never a correctness requirement, so donor
        failures just move on to the next donor."""
        try:
            have = set(self.cache_keys())
        except (ShardUnreachable, ServiceError):
            return 0  # this node has no cache directory: nothing to warm
        shipped = 0
        for donor in donors:
            try:
                for key in donor.cache_keys():
                    if key in have:
                        continue
                    # fetched entries arrive verified (key, raw bytes)
                    self.cache_push(*donor.cache_fetch(key))
                    have.add(key)
                    shipped += 1
            except (ShardUnreachable, ServiceError):
                continue  # this donor can't serve entries; try the next
        return shipped


# ----------------------------------------------------------------------
# the pool contract over one (node, tenant)
# ----------------------------------------------------------------------


class RemoteShardPool:
    """The :class:`~repro.service.pool.Pool` contract over one (remote
    shard node, tenant) pair, so the router's traffic paths are
    backend-agnostic.  Stateless but for ``closed``: outstanding work
    lives in the node connection's registry (see the module
    docstring)."""

    def __init__(self, node: RemoteShardNode, tenant: str):
        self.node = node
        self.tenant = tenant
        self._closed = False

    def _send(
        self,
        entry: Entry,
        fields: dict,
        project: Callable[[Any], Any] | None = None,
    ) -> Future:
        if self._closed:
            raise PoolClosed("remote shard pool is closed")
        entry.tenant = self.tenant
        if protocol.VERBS[entry.op].tenant:
            fields = {"tenant": self.tenant, **fields}
        return self.node.request_async(
            entry.op,
            entry=entry,
            reshape=_unwrap if project is None else lambda r: project(_unwrap(r)),
            **fields,
        )

    def submit(
        self, op: str, query: Query, *, future: Future | None = None, **payload: Any
    ) -> Future:
        """Submit one routed task.  ``future`` — used by the failover
        path — places the work on an *existing* future instead of
        minting one, preserving the original caller's handle across a
        shard death.  A task's payload is what crosses the wire when it
        has one (a SQL disjunct's text, which the shard recompiles
        against its own replica); otherwise its query text does —
        ``query`` stays the lowered form whose canonical key placed the
        task."""
        verb = protocol.VERBS[op]
        fields = verb.encode(**payload) if payload else verb.encode(query)
        if future is None:
            future = Future()
        return self._send(Entry(op, query, payload, future), fields)

    def mutate(self, kind: str, relation: str, t: tuple) -> Future:
        fields = protocol.VERBS["mutate"].encode(kind, relation, t)
        return self._send(Entry("mutate", None, {}, Future()), fields)

    def stats_async(self) -> Future:
        return self._send(
            Entry("stats", None, {}, Future()), {}, self._project_stats
        )

    def _project_stats(self, value: dict) -> dict:
        """Project the node-wide stats payload down to this tenant's
        slice, in the ``{"workers": [...], "aggregate": {...}}`` shape
        the router's aggregation expects from a pool."""
        workers: list[dict] = []
        aggregate: dict[str, int] = {}
        for shard_stats in (value.get("shards") or {}).values():
            pool_stats = shard_stats.get(self.tenant) or {}
            workers.extend(pool_stats.get("workers") or [])
            for name, count in (pool_stats.get("aggregate") or {}).items():
                aggregate[name] = aggregate.get(name, 0) + int(count)
        return {"workers": workers, "aggregate": aggregate, "node": self.node.name}

    def close(self) -> dict:
        self._closed = True
        return {"node": self.node.name, "tenant": self.tenant}

    def terminate(self) -> None:
        self.close()


# ----------------------------------------------------------------------
# spawning real shard OS processes (tests, CI, ops scripts)
# ----------------------------------------------------------------------


class ShardProcess:
    """A shard node running as a child OS process."""

    def __init__(
        self,
        process: subprocess.Popen,
        name: str,
        host: str,
        port: int,
        cache_dir: str | None = None,
    ):
        self.process = process
        self.name = name
        self.host = host
        self.port = port
        self.cache_dir = cache_dir

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def pause(self) -> None:
        """SIGSTOP the node: it stops answering but its connections
        stay open, so work routed to it is pinned in flight — the
        deterministic setup for a failover kill (POSIX only)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGSTOP)

    def kill(self) -> None:
        """Hard-kill the shard process (the failover tests' hammer)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)

    def stop(self) -> None:
        """Graceful stop (SIGTERM), falling back to kill."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.kill()

    def __enter__(self) -> "ShardProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


_LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")


def spawn_shard_process(
    name: str,
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    startup_timeout: float = 120.0,
    extra_args: Sequence[str] = (),
) -> ShardProcess:
    """Launch ``repro shard`` as a child OS process and wait for its
    ``listening on host:port`` startup line (``port=0`` binds an
    ephemeral port; the parsed line carries the real one).  The child
    inherits the environment, so a source checkout driven with
    ``PYTHONPATH=src`` spawns shards that import the same tree."""
    command = [
        sys.executable,
        "-m",
        "repro",
        "shard",
        "--name",
        name,
        "--listen",
        f"{host}:{port}",
        "--workers",
        str(workers),
        *extra_args,
    ]
    if cache_dir is not None:
        command += ["--cache-dir", os.fspath(cache_dir)]
    # its own session, hence its own process group: everything the node
    # spawns (workers, the multiprocessing resource tracker) is findable
    # by pgid == process.pid even after the node itself is gone
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    deadline = time.monotonic() + startup_timeout
    collected: list[str] = []
    assert process.stdout is not None
    while True:
        line = process.stdout.readline()
        if not line:
            process.wait(timeout=10)
            raise RuntimeError(
                f"shard {name!r} exited during startup "
                f"(rc={process.returncode}):\n" + "".join(collected)
            )
        collected.append(line)
        match = _LISTENING.search(line)
        if match:
            return ShardProcess(
                process,
                name,
                match.group(1),
                int(match.group(2)),
                cache_dir=os.fspath(cache_dir) if cache_dir is not None else None,
            )
        if time.monotonic() > deadline:  # pragma: no cover - hung child
            process.kill()
            raise RuntimeError(
                f"shard {name!r} did not report its address within "
                f"{startup_timeout}s:\n" + "".join(collected)
            )
