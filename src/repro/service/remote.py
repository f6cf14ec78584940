"""Remote shard nodes: the router tier across machine boundaries.

PR 6's :class:`~repro.service.router.ShardRouter` proved placement,
tenancy, replication and hot-reload semantics over worker pools inside
one process tree.  This module distributes it: a shard node is a
standalone ``RouterServer``-speaking OS process (``repro shard
--listen``), and the coordinator dials it over the existing JSON-lines
protocol instead of owning its worker pools — the verb table already
ships databases and mutations, so attach/reload/mutate replication
become wire calls.

Two pieces:

* :class:`RemoteShardNode` — the coordinator-side handle for one shard
  process: a :class:`~repro.service.client.ServiceClient` (one
  persistent, pipelined connection) under the shard's ring name.  A
  connection is what fails, so its pending map is the **one registry**
  of the node's failure domain: it holds every
  :class:`~repro.service.pool.Entry` in flight on the node, whichever
  tenant it belongs to, and whoever pops an entry owns its resolve.  It
  is the remote kind of the router's shard seam: attach/swap/detach
  ship a tenant's snapshot or purge it over the tenant verbs, and
  ``warm`` fills a joining node's per-node cache directory through the
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

import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from ..queries.query import Query
from . import protocol
from .client import ServiceClient, ServiceError, ShardUnreachable, _unwrap
from .pool import Entry, PoolClosed

__all__ = [
    "RemoteShardNode",
    "RemoteShardPool",
    "ShardProcess",
    "spawn_shard_process",
]


# ----------------------------------------------------------------------
# the coordinator-side node handle
# ----------------------------------------------------------------------


class RemoteShardNode(ServiceClient):
    """One remote shard process, as the coordinator sees it — the
    remote kind of the router's shard seam (see
    :mod:`repro.service.router`; ``_LocalShard`` is the in-process
    kind).  It is a :class:`~repro.service.client.ServiceClient` under
    the shard's ring name (``on_down`` receives the node; :meth:`drain`
    is the registry of its failure domain, :meth:`ping` the health
    probe), dialed with ``connect_timeout`` and waiting
    :attr:`ADMIN_TIMEOUT` for each reply.  The seam methods are written
    over its verb methods: :meth:`attach` ships a tenant's snapshot,
    :meth:`swap` reloads it (the node swaps its own pools, so the
    coordinator's pool serves on), :meth:`detach` purges the node's own
    cache, :meth:`warm` fills it from donor nodes.  A snapshot carries
    its wire encoding, computed once however many nodes receive it."""

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
        super().__init__(host, port, connect_timeout, on_down=on_down)
        self.timeout = self.ADMIN_TIMEOUT

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
