"""The sharded router tier: consistent hashing over shard nodes,
multi-tenant namespaces, hot-reload via delta replay.

A :class:`ShardRouter` places canonical-form groups on a consistent-hash
:class:`~repro.service.ring.HashRing` over N *shard nodes*, each backed
by one :class:`~repro.service.pool.WorkerPool` per attached tenant.  The
design extends the pool's single-node amortisation story to a fleet:

* **Placement.**  Queries are routed by the stable digest of their
  canonical form, so isomorphic queries land on the same shard (and,
  inside it, the same worker) no matter which client sent them.  The
  ring's virtual nodes make placement *stable*: growing an N-node ring
  to N+1 remaps only ~1/(N+1) of the groups; every other group keeps
  its warm shard.

* **Tenancy.**  Each tenant owns an isolated database (its shard pools
  are built from independent clones) but all pools share ONE
  content-addressed reduction cache directory, namespaced per tenant
  (:class:`~repro.core.reduction_cache.ReductionCache` ownership
  markers).  Two tenants serving identical relations therefore share
  one cached reduction — the second tenant's cold start performs zero
  forward reductions — while :meth:`detach_tenant` can purge exactly
  the entries no surviving tenant references.

* **Replication.**  Every shard serves every tenant; the ring only
  decides which shard *answers* a canonical group.  Mutations are
  applied to the tenant's master database first — its logged change
  stream is the replicated delta log — then broadcast to every shard's
  pool, so all shards converge on the same patched reductions and a
  ring rescale never routes a group to a shard with stale data.

* **Hot-reload.**  :meth:`reload` swaps in a new database under live
  traffic: new pools are built from a snapshot while the old ones keep
  serving, mutations accepted during the build are replayed onto the
  snapshot from the delta log, the pools are swapped atomically, and
  the old pools are closed *gracefully* — their queues drain, so no
  in-flight request is dropped.

* **Remote shards.**  With ``remote_shards`` the router becomes a
  *coordinator*: each shard is a standalone ``repro shard --listen``
  OS process (its own interpreter, workers and per-node cache
  directory), dialed over the JSON-lines protocol through
  :class:`~repro.service.remote.RemoteShardNode` instead of owning its
  pools in-process.  The same verbs that clients speak *are* the
  replication transport (``attach_tenant``/``reload`` ship snapshots,
  ``mutate`` ships each logged change); a health-check thread pings
  every node and evicts the unreachable; a joining node's cache is
  warmed by shipping a donor's content-addressed entries over the wire,
  so it performs zero forward reductions for already-reduced groups.

* **Failure model.**  One registry per failure domain, and whoever
  pops an entry owns its resolve.  What fails in remote mode is a
  node's *connection*, so the connection's pending map is the registry
  for every tenant's work on that node.  Eviction — connection loss,
  failed health check or decommission, all through :meth:`_shard_down`
  — drops the node from the ring, drains that map and hands the entries
  to :func:`~repro.service.pool.settle_lost`, the same function a
  pool's worker-death path uses: routed work is submitted again *on the
  original future* and recomputes its own placement over the surviving
  ring (exactly-once, the pool's crash-resubmission contract carried
  across machine boundaries), broadcast acks resolve benignly, and an
  entry nobody can take — its tenant was detached meanwhile, or no
  shard survives — fails with the typed ``ShardUnreachable``.

Routing and pool mutation are enqueue-only and happen under one router
lock; slow operations (process spawns in attach/reload/rescale, pool
drains, wire round-trips) happen outside it, so admin operations never
stall traffic.
"""

from __future__ import annotations

import inspect
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from ..core.reduction_cache import ReductionCache
from ..core.session import canonical_form
from ..engine.relation import Database, Delta
from ..queries.query import Query
from . import protocol
from .client import ServiceError
from .pool import Entry, Pool, WorkerPool, _gather, settle_lost, submit_many, submit_sql
from .remote import RemoteShardNode, RemoteShardPool, ShardUnreachable
from .ring import HashRing

__all__ = ["RouterClosed", "ShardRouter", "UnknownTenant"]


class RouterClosed(RuntimeError):
    """The router no longer accepts work."""


class UnknownTenant(KeyError):
    """No such tenant is attached."""


class _Tenant:
    """Parent-side state for one tenant: the master database (whose
    change log is the replicated delta log) and its per-shard pools
    (in-process :class:`~repro.service.pool.WorkerPool`\\ s, or
    :class:`~repro.service.remote.RemoteShardPool`\\ s in remote
    mode — same surface either way)."""

    def __init__(self, name: str, master: Database):
        self.name = name
        self.master = master
        self.pools: dict[str, Pool] = {}  # shard name -> pool
        self.reloads = 0


class ShardRouter:
    """Route tenant query traffic across a consistent-hash ring of
    worker-pool shard nodes.

    ``shards`` names the initial nodes; ``cache_dir`` — strongly
    recommended — is the single reduction cache shared by every pool of
    every tenant on every shard (content addressing keeps it correct;
    namespaces keep ownership accountable).  ``workers_per_shard``
    sizes each (shard, tenant) pool.

    ``remote_shards`` — ``{name: (host, port)}`` — switches the router
    into coordinator mode: the named addresses are dialed as standalone
    shard node processes and ``shards``/``workers_per_shard`` no longer
    spawn anything locally (each node sizes its own workers).  In this
    mode ``cache_dir`` is the *coordinator's* directory (usually
    ``None``: each node owns a per-node cache warmed over the wire) and
    ``health_interval`` enables a background ping loop that evicts
    unreachable nodes and fails their work over to survivors.
    """

    def __init__(
        self,
        shards: Sequence[str] = ("shard-0", "shard-1"),
        cache_dir: str | os.PathLike | None = None,
        workers_per_shard: int = 1,
        replicas: int = 128,
        remote_shards: Mapping[str, tuple[str, int]] | None = None,
        health_interval: float | None = None,
        connect_timeout: float = 10.0,
        **pool_options: Any,
    ):
        self.remote = remote_shards is not None
        if self.remote:
            if not remote_shards:
                raise ValueError("need at least one remote shard")
            shards = tuple(remote_shards)
        if not shards:
            raise ValueError("need at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard names in {shards!r}")
        if workers_per_shard < 1:
            raise ValueError("workers_per_shard must be at least 1")
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.workers_per_shard = workers_per_shard
        # a misspelt (or retired) pool option is a TypeError here, not
        # at the first attach — or never, in remote mode
        inspect.signature(WorkerPool).bind_partial(**pool_options)
        self._pool_options = pool_options
        self._connect_timeout = connect_timeout
        self._nodes: dict[str, RemoteShardNode] = {}
        if self.remote:
            assert remote_shards is not None
            try:
                for name, (host, port) in remote_shards.items():
                    self._nodes[name] = RemoteShardNode(
                        name,
                        str(host),
                        int(port),
                        connect_timeout=connect_timeout,
                        on_down=self._node_down,
                    )
            except Exception:
                for node in self._nodes.values():
                    node.close()
                raise
        self._ring = HashRing(shards, replicas=replicas)
        self._tenants: dict[str, _Tenant] = {}
        self._lock = threading.RLock()
        self._closed = False
        # admin operations (attach/reload/rescale) spawn processes; one
        # serial executor keeps them ordered and off the event loop
        self._admin = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-router-admin"
        )
        self._health_stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if self.remote and health_interval is not None:
            if health_interval <= 0:
                raise ValueError("health_interval must be positive")
            self._health_thread = threading.Thread(
                target=self._health_loop,
                args=(health_interval,),
                name="repro-router-health",
                daemon=True,
            )
            self._health_thread.start()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def shard_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._ring.nodes))

    @property
    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    def database(self, tenant: str) -> Database:
        """The tenant's master database (the served truth; treat as
        read-only — mutate through :meth:`mutate`)."""
        return self._tenant(tenant).master

    def describe(self) -> dict:
        """Ring topology plus tenant placement, JSON-safe.  In remote
        mode the ``addresses`` entry advertises each live node's
        ``[host, port]`` — what a routing client dials directly."""
        with self._lock:
            info = {
                **self._ring.describe(),
                "tenants": sorted(self._tenants),
                "workers_per_shard": self.workers_per_shard,
            }
            if self.remote:
                info["addresses"] = {
                    name: [node.host, node.port]
                    for name, node in self._nodes.items()
                    if name in self._ring
                }
            return info

    def placement(self, keys: Iterable[object]) -> dict:
        """Shard for each canonical-form key — the tool behind the
        placement-stability tests and ``repro route``."""
        with self._lock:
            return self._ring.placement(keys)

    def shard_for(self, query: Query) -> str:
        """The shard node that answers ``query``'s canonical group."""
        with self._lock:
            return self._ring.node_for(canonical_form(query).key)

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------

    def _tenant(self, tenant: str) -> _Tenant:
        with self._lock:
            state = self._tenants.get(tenant)
        if state is None:
            raise UnknownTenant(tenant)
        return state

    def _check_tenant(self, tenant: str, state: _Tenant) -> None:
        """Caller holds the lock.  Re-validate that ``state`` is still
        THE attached state for ``tenant``: it was looked up outside the
        lock, and a concurrent ``detach_tenant`` may have popped it in
        between — enqueueing into a zombie state's pools would answer
        from (or mutate) a tenant the caller was told no longer
        exists."""
        if self._tenants.get(tenant) is not state:
            raise UnknownTenant(tenant)

    def _build_pool(self, db: Database, tenant: str) -> WorkerPool:
        return WorkerPool(
            db,
            workers=self.workers_per_shard,
            cache_dir=self.cache_dir,
            cache_namespace=tenant,
            **self._pool_options,
        )

    def attach_tenant(self, tenant: str, db: Database) -> dict:
        """Attach ``tenant`` serving a snapshot of ``db``: one worker
        pool per shard (in remote mode, the snapshot is shipped to every
        node over the wire), all namespaced into the shared cache.
        Blocks until every shard can serve it; the tenant only becomes
        routable once every shard can serve it."""
        if not ReductionCache.NAMESPACE_PATTERN.match(tenant):
            raise ValueError(f"invalid tenant name {tenant!r}")
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            if tenant in self._tenants:
                raise ValueError(f"tenant {tenant!r} is already attached")
            shard_names = list(self._ring.nodes)
            nodes = dict(self._nodes)
        state = _Tenant(tenant, db.clone())
        if self.remote:
            encoded = protocol.encode_database(state.master)
            attached: list[RemoteShardNode] = []
            try:
                for name in shard_names:
                    node = nodes[name]
                    node.attach_tenant(tenant, encoded)
                    attached.append(node)
                    state.pools[name] = RemoteShardPool(node, tenant)
            except Exception:
                for node in attached:
                    try:
                        node.detach_tenant(tenant)
                    except (ShardUnreachable, ServiceError):
                        pass
                raise
        else:
            try:
                for name in shard_names:
                    state.pools[name] = self._build_pool(
                        state.master.clone(), tenant
                    )
            except Exception:
                for pool in state.pools.values():
                    pool.terminate()
                raise
        with self._lock:
            closed, duplicate = self._closed, tenant in self._tenants
            if not closed and not duplicate:
                if self.remote:
                    # a shard evicted while we were attaching must not
                    # keep a pool: its connection is settled, so every
                    # broadcast through it would fail
                    state.pools = {
                        name: pool
                        for name, pool in state.pools.items()
                        if name in self._nodes
                    }
                self._tenants[tenant] = state
        if closed or duplicate:
            self._discard_pools(state, tenant)
            raise (
                ValueError(f"tenant {tenant!r} is already attached")
                if duplicate
                else RouterClosed("router is closed")
            )
        return {
            "tenant": tenant,
            "shards": len(state.pools),
            "relations": list(state.master.relation_names),
            "size": state.master.size,
        }

    def _discard_pools(self, state: _Tenant, tenant: str) -> None:
        """Tear down pools that never became routable (failed attach)."""
        for name, pool in state.pools.items():
            pool.terminate()
            if self.remote:
                node = self._nodes.get(name)
                if node is not None:
                    try:
                        node.detach_tenant(tenant)
                    except (ShardUnreachable, ServiceError):
                        pass

    def detach_tenant(self, tenant: str, purge: bool = True) -> dict:
        """Detach ``tenant``: close its pools on every shard (draining
        queued work) and — with ``purge`` — evict exactly the cached
        reductions no other tenant's namespace references (in remote
        mode, on every node's own cache directory)."""
        with self._lock:
            state = self._tenants.pop(tenant, None)
            nodes = dict(self._nodes)
        if state is None:
            raise UnknownTenant(tenant)
        purged = 0
        for name, pool in state.pools.items():
            pool.close()
            if self.remote:
                # work still in flight on a node that dies from here on
                # finds no pool at eviction and fails typed
                node = nodes.get(name)
                if node is not None:
                    try:
                        report = node.detach_tenant(tenant, purge=purge)
                        purged += int(report.get("purged", 0) or 0)
                    except (ShardUnreachable, ServiceError):
                        pass  # dead/dying node: nothing left to purge
        if purge and self.cache_dir is not None:
            purged += ReductionCache(self.cache_dir).purge_namespace(tenant)
        return {"tenant": tenant, "shards": len(state.pools), "purged": purged}

    # ------------------------------------------------------------------
    # query traffic
    # ------------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        op: str,
        query: Query,
        *,
        future: Future | None = None,
        **payload: Any,
    ) -> Future:
        """Place one routed task on the ring shard that owns ``query``'s
        canonical form.  ``future`` places the work on a future a caller
        already holds — a failover resubmission is exactly this call, so
        it recomputes its own placement over the surviving ring."""
        key = canonical_form(query).key
        state = self._tenant(tenant)
        # lookup + enqueue under the router lock: a concurrent reload
        # swaps pools under the same lock, so a request either lands in
        # an old pool *before* the swap (drained gracefully, answered)
        # or in the new pool after — never in a closed pool
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            self._check_tenant(tenant, state)
            if not len(self._ring):
                raise ShardUnreachable("no shard nodes are reachable")
            pool = state.pools[self._ring.node_for(key)]
            return pool.submit(op, query, future=future, **payload)

    def evaluate(self, tenant: str, query: Query) -> Future:
        """Future Boolean answer, served by the group's ring shard."""
        return self.submit(tenant, "evaluate", query)

    def count(self, tenant: str, query: Query) -> Future:
        """Future exact witness count."""
        return self.submit(tenant, "count", query)

    def submit_many(
        self, queries: Sequence[Query], tenant: str, op: str = "evaluate"
    ) -> Future:
        """Batch interface: one task per canonical group goes to the
        group's ring shard (see :func:`~repro.service.pool.submit_many`).
        Resolves to the ordered answer list."""
        return submit_many(partial(self.submit, tenant), queries, op)

    def evaluate_many(self, queries: Sequence[Query], tenant: str) -> list[bool]:
        return self.submit_many(queries, tenant).result()

    def sql(self, tenant: str, text: str) -> Future:
        """Future answer for a SQL program, compiled once here against
        the tenant's master database and routed disjunct by disjunct
        (see :func:`~repro.service.pool.submit_sql`)."""
        return submit_sql(partial(self.submit, tenant), self.database(tenant), text)

    def mutate(self, tenant: str, kind: str, relation: str, t: tuple) -> Future:
        """Apply one tuple-level mutation to the tenant's master
        database (logging it into the replicated delta log) and
        broadcast it to the tenant's pool on *every* shard — the ring
        decides who answers a group, but all shards stay converged so
        rescaling is always safe.  Resolves to
        ``{"applied": ..., "version": ..., "shards": ...}``."""
        state = self._tenant(tenant)
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            self._check_tenant(tenant, state)
            master = state.master
            delta = master.apply_delta(Delta(master.version, kind, relation, tuple(t)))
            version = master.version
            # enqueue-only fan-out under the lock: add_shard's delta
            # catch-up runs under the same lock, so a new shard either
            # replays this delta or receives this very broadcast
            futures = [
                pool.mutate(kind, relation, t) for pool in state.pools.values()
            ]
        ack = {"applied": delta is not None, "version": version, "shards": len(futures)}
        return _gather(futures, lambda acks: ack)

    # ------------------------------------------------------------------
    # ring rescaling
    # ------------------------------------------------------------------

    def add_shard(self, name: str, address: tuple[str, int] | None = None) -> dict:
        """Grow the ring by one node.  The new shard's pools are built
        from clones of each tenant's master (in remote mode, ``address``
        names the already-running shard process to dial; its per-node
        cache is first warmed by shipping a donor's content-addressed
        entries over the wire), caught up from the delta log (mutations
        accepted during the build are replayed — replays are idempotent,
        so overlap with the snapshot is harmless), and only then does
        the node join the ring: a group is never routed to a shard that
        cannot serve it.  Over the shared cache the new shard warms
        content-addressed and performs zero forward reductions for
        already-reduced groups."""
        if self.remote:
            if address is None:
                raise ValueError(
                    "a remote router needs the new shard's (host, port)"
                )
            return self._add_remote_shard(name, address)
        if address is not None:
            raise ValueError("local shards have no address")
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            if name in self._ring:
                raise ValueError(f"shard {name!r} is already in the ring")
            snapshots = {
                tenant: (state, state.master.clone(), state.master.version)
                for tenant, state in self._tenants.items()
            }
        built: dict[str, WorkerPool] = {}
        try:
            for tenant, (_state, snapshot, _v0) in snapshots.items():
                built[tenant] = self._build_pool(snapshot, tenant)
        except Exception:
            for pool in built.values():
                pool.terminate()
            raise
        with self._lock:
            if self._closed or name in self._ring:
                for pool in built.values():
                    pool.terminate()
                if self._closed:
                    raise RouterClosed("router is closed")
                raise ValueError(f"shard {name!r} is already in the ring")
            for tenant, (state, _snapshot, v0) in snapshots.items():
                pool = built.get(tenant)
                if pool is None or tenant not in self._tenants:
                    continue  # detached while we were building
                for delta in self._replayable(state.master, v0):
                    pool.mutate(delta.kind, delta.relation, delta.tuple)
                state.pools[name] = pool
            self._ring.add(name)
            shards = len(self._ring)
        for tenant, pool in built.items():
            if tenant not in snapshots or snapshots[tenant][0].pools.get(name) is not pool:
                pool.terminate()  # tenant detached mid-build
        return {"shard": name, "shards": shards, "tenants": sorted(snapshots)}

    def _add_remote_shard(self, name: str, address: tuple[str, int]) -> dict:
        host, port = address
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            if name in self._ring or name in self._nodes:
                raise ValueError(f"shard {name!r} is already in the ring")
            donors = list(self._nodes.values())
            snapshots = {
                tenant: (
                    state,
                    protocol.encode_database(state.master),
                    state.master.version,
                )
                for tenant, state in self._tenants.items()
            }
        node = RemoteShardNode(
            name,
            str(host),
            int(port),
            connect_timeout=self._connect_timeout,
            on_down=self._node_down,
        )
        try:
            # warm the newcomer's cache BEFORE attaching tenants: its
            # pools then build their sessions over a directory that
            # already holds every donor reduction, so already-reduced
            # groups cost zero forward reductions from the first query
            shipped = self._warm_node_cache(node, donors)
            for tenant, (_state, encoded, _v0) in snapshots.items():
                node.attach_tenant(tenant, encoded)
        except Exception:
            node.close()
            raise
        with self._lock:
            closed = self._closed
            taken = name in self._ring or name in self._nodes
            if not closed and not taken:
                for tenant, (state, _encoded, v0) in snapshots.items():
                    if self._tenants.get(tenant) is not state:
                        continue  # detached while we were attaching
                    pool = RemoteShardPool(node, tenant)
                    for delta in self._replayable(state.master, v0):
                        pool.mutate(delta.kind, delta.relation, delta.tuple)
                    state.pools[name] = pool
                self._nodes[name] = node
                self._ring.add(name)
                return {
                    "shard": name,
                    "shards": len(self._ring),
                    "tenants": sorted(snapshots),
                    "cache_entries_shipped": shipped,
                }
        node.close()
        if closed:
            raise RouterClosed("router is closed")
        raise ValueError(f"shard {name!r} is already in the ring")

    def _warm_node_cache(
        self, node: RemoteShardNode, donors: Sequence[RemoteShardNode]
    ) -> int:
        """Ship every cache entry a donor holds and the newcomer lacks,
        content-addressed and integrity-verified (``cache_keys`` →
        ``cache_fetch`` → ``cache_push``).  Warming is an optimisation,
        never a correctness requirement, so donor failures just move on
        to the next donor."""
        try:
            have = set(node.cache_keys())
        except (ShardUnreachable, ServiceError):
            return 0  # node has no cache directory: nothing to warm
        shipped = 0
        for donor in donors:
            try:
                for key in donor.cache_keys():
                    if key in have:
                        continue
                    # fetched entries arrive verified (key, raw bytes)
                    node.cache_push(*donor.cache_fetch(key))
                    have.add(key)
                    shipped += 1
            except (ShardUnreachable, ServiceError):
                continue  # this donor can't serve entries; try the next
        return shipped

    def remove_shard(self, name: str) -> dict:
        """Shrink the ring by one node.  The node leaves the ring first
        — its ~1/N of the groups remap to survivors, every other group
        keeps its placement — then its pools are closed.  Locally the
        close is *graceful* (queued tasks drain and answer); a remote
        node is decommissioned through the same eviction path a failed
        health check uses, so its in-flight work is resubmitted to
        survivors and still answers."""
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            if name not in self._ring:
                raise ValueError(f"shard {name!r} is not in the ring")
            if len(self._ring) == 1:
                raise ValueError("cannot remove the last shard")
            if not self.remote:
                self._ring.remove(name)
                orphans = [
                    state.pools.pop(name)
                    for state in self._tenants.values()
                    if name in state.pools
                ]
                shards = len(self._ring)
        if self.remote:
            report = self._shard_down(name)
            return {
                "shard": name,
                "shards": report["shards"],
                "tenants": report["tenants"],
                "resubmitted": report["resubmitted"],
            }
        for pool in orphans:
            pool.close()
        return {"shard": name, "shards": shards, "tenants": len(orphans)}

    # ------------------------------------------------------------------
    # remote failure handling
    # ------------------------------------------------------------------

    def _node_down(self, node: RemoteShardNode) -> None:
        """Connection-loss callback, fired on the node's reader thread
        while its unanswered entries are still pending — the eviction
        drains and settles them."""
        try:
            self._shard_down(node.name)
        except Exception:  # pragma: no cover - eviction must not raise
            pass

    def _shard_down(self, name: str) -> dict:
        """Evict a dead (or decommissioned) remote shard: drop it from
        the ring and every tenant's pool map, drain its connection's
        registry and settle the entries (see the module docstring's
        failure model).  Runs under the router lock, so no new work can
        be routed to the node mid-eviction and a concurrent
        :meth:`submit` sees either the full fleet or the survivors."""
        with self._lock:
            node = self._nodes.pop(name, None)
            if name in self._ring:
                self._ring.remove(name)
            tenants = 0
            for state in self._tenants.values():
                pool = state.pools.pop(name, None)
                if pool is not None:
                    pool.close()
                    tenants += 1

            def resubmit(entry: Entry) -> bool:
                try:
                    self.submit(
                        entry.tenant,
                        entry.op,
                        entry.query,
                        future=entry.future,
                        **entry.payload,
                    )
                except Exception:
                    # its tenant was detached meanwhile, no shard
                    # survives, the router closed: the entry fails typed
                    return False
                return True

            # (an eviction that lost the race to another finds nothing)
            resubmitted, failed = settle_lost(
                node.drain() if node is not None else (),
                resubmit,
                ShardUnreachable(
                    f"shard {name!r} died and no surviving shard can "
                    f"take the work"
                ),
            )
            shards = len(self._ring)
        if node is not None:
            node.close()
        return {
            "shard": name,
            "shards": shards,
            "tenants": tenants,
            "resubmitted": resubmitted,
            "failed": failed,
        }

    def _health_loop(self, interval: float) -> None:
        """Ping every node each ``interval`` seconds (the cheap ``ring``
        verb); evict the ones that are down or silent.  Eviction is how
        a *hung* (not crashed) node's in-flight work fails over: the
        eviction drains the connection's registry and resubmits, then
        closes the connection — a late reply finds nothing pending."""
        timeout = min(interval, 5.0)
        while not self._health_stop.wait(interval):
            with self._lock:
                nodes = list(self._nodes.values())
            for node in nodes:
                if self._health_stop.is_set():
                    return
                if node.is_down or not node.ping(
                    timeout=timeout
                ):
                    self._node_down(node)

    # ------------------------------------------------------------------
    # hot-reload
    # ------------------------------------------------------------------

    @staticmethod
    def _replayable(master: Database, since: int):
        logged = master.changes_since(since)
        if logged is None:
            raise RuntimeError(
                "change log trimmed during the operation; retry"
            )
        return [d for d in logged if d.is_tuple_level]

    def reload(self, tenant: str, db: Database) -> dict:
        """Hot-swap ``tenant``'s served database for ``db`` under live
        traffic: snapshot + delta replay.  New pools are built from the
        snapshot while the old ones keep serving; mutations accepted
        during the build are replayed from the old master's delta log
        onto the new master and pools; the swap is atomic under the
        router lock; the old pools close gracefully afterwards, so
        requests in flight at swap time still answer (from the old
        data — the same answer they'd have gotten a moment earlier).
        In remote mode each node performs its own local swap and the
        coordinator then replays its delta-log suffix to every pool —
        replays are idempotent under set semantics, so the fleet
        converges no matter how the swap interleaved with traffic."""
        if self.remote:
            return self._reload_remote(tenant, db)
        state = self._tenant(tenant)
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            v0 = state.master.version
            shard_names = list(state.pools)
        new_master = db.clone()
        new_pools: dict[str, WorkerPool] = {}
        try:
            for name in shard_names:
                new_pools[name] = self._build_pool(new_master.clone(), tenant)
        except Exception:
            for pool in new_pools.values():
                pool.terminate()
            raise
        with self._lock:
            if self._closed or self._tenants.get(tenant) is not state:
                for pool in new_pools.values():
                    pool.terminate()
                if self._closed:
                    raise RouterClosed("router is closed")
                raise UnknownTenant(tenant)
            replayed = 0
            for delta in self._replayable(state.master, v0):
                new_master.apply_delta(delta)
                for pool in new_pools.values():
                    pool.mutate(delta.kind, delta.relation, delta.tuple)
                replayed += 1
            # a shard added while we were building gets the new data too
            for name in list(state.pools):
                if name not in new_pools:
                    new_pools[name] = state.pools.pop(name)  # pragma: no cover
            old_pools, state.pools = dict(state.pools), new_pools
            state.master = new_master
            state.reloads += 1
        for pool in old_pools.values():
            pool.close()
        return {
            "tenant": tenant,
            "replayed": replayed,
            "version": new_master.version,
            "shards": len(new_pools),
        }

    def _reload_remote(self, tenant: str, db: Database) -> dict:
        state = self._tenant(tenant)
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            self._check_tenant(tenant, state)
            v0 = state.master.version
            nodes = [
                self._nodes[name]
                for name in state.pools
                if name in self._nodes
            ]
        new_master = db.clone()
        encoded = protocol.encode_database(new_master)
        reloaded = 0
        for node in nodes:
            # fan out OUTSIDE the lock: each node swaps locally while
            # the coordinator keeps routing (to old data — the same
            # answers a moment earlier would have given)
            try:
                node.reload(tenant, encoded)
                reloaded += 1
            except ShardUnreachable:
                continue  # the health check will evict it
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            self._check_tenant(tenant, state)
            replayed = 0
            for delta in self._replayable(state.master, v0):
                new_master.apply_delta(delta)
                for pool in state.pools.values():
                    pool.mutate(delta.kind, delta.relation, delta.tuple)
                replayed += 1
            state.master = new_master
            state.reloads += 1
            shards = len(state.pools)
        return {
            "tenant": tenant,
            "replayed": replayed,
            "version": new_master.version,
            "shards": shards,
            "reloaded": reloaded,
        }

    # ------------------------------------------------------------------
    # stats and lifecycle
    # ------------------------------------------------------------------

    def admin(self, fn, *args: Any, **kwargs: Any) -> Future:
        """Run one admin operation (attach/detach/reload/rescale) on
        the router's serial admin executor; returns its future.  Keeps
        slow, process-spawning operations ordered and off the caller's
        thread (the asyncio server awaits these)."""
        return self._admin.submit(fn, *args, **kwargs)

    def stats_async(self) -> Future:
        """Future stats aggregate over every (shard, tenant) pool."""
        with self._lock:
            if self._closed:
                raise RouterClosed("router is closed")
            triples = [
                (tenant, name, pool.stats_async())
                for tenant, state in self._tenants.items()
                for name, pool in state.pools.items()
            ]
            ring = self.describe()

        def assemble(values: list) -> dict:
            shards: dict[str, dict] = {}
            totals: dict[str, int] = {}
            for (tenant, name, _), value in zip(triples, values):
                if value is None:
                    continue  # the shard died with the broadcast in flight
                shards.setdefault(name, {})[tenant] = value
                for stat, count in (value.get("aggregate") or {}).items():
                    totals[stat] = totals.get(stat, 0) + int(count)
            return {"ring": ring, "shards": shards, "aggregate": totals}

        return _gather([f for _, _, f in triples], assemble)

    def stats(self) -> dict:
        return self.stats_async().result()

    # -- cache shipping: this node's own directory (disk I/O — the wire
    # -- tier runs these on the admin executor) -------------------------

    def _cache(self) -> ReductionCache:
        if self.cache_dir is None:
            raise protocol.ProtocolError("this node has no cache directory")
        return ReductionCache(self.cache_dir)

    def cache_keys(self) -> list[str]:
        return self._cache().entry_keys()

    def cache_fetch(self, key: str) -> dict:
        raw = self._cache().export_entry(key)
        if raw is None:
            raise ValueError(f"no cache entry {key!r}")
        return protocol.encode_cache_entry(key, raw)

    def cache_push(self, key: str, raw: bytes) -> dict:
        return {"key": key, "stored": self._cache().import_entry(key, raw)}

    def close(self) -> dict:
        """Close every pool gracefully and stop the admin executor (in
        remote mode: also the health thread and the node connections —
        anything still in flight resolves, typed, rather than hanging)."""
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10)
        with self._lock:
            if self._closed:
                return {"tenants": {}}
            self._closed = True
            tenants = dict(self._tenants)
            nodes = list(self._nodes.values())
            self._nodes = {}
        reports = {
            tenant: {name: pool.close() for name, pool in state.pools.items()}
            for tenant, state in tenants.items()
        }
        for node in nodes:
            settle_lost(
                node.drain(), None, RouterClosed("router is closed")
            )
            node.close()
        self._admin.shutdown(wait=True)
        return {"tenants": reports}

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
