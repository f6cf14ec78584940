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

* **The shard seam.**  Every admin path is written once against one
  small interface — ``attach``/``swap`` a tenant snapshot (returning
  the pool that serves it), ``detach``, ``warm`` from donors, ``drain``
  the registry of unanswered work, ``ping``, ``close`` — with two kinds,
  chosen in one place (:meth:`ShardRouter._dial`).  A
  :class:`_LocalShard` builds in-process pools over the shared cache.
  With ``remote_shards`` the router is a *coordinator* and each shard a
  :class:`~repro.service.remote.RemoteShardNode`: a standalone ``repro
  shard --listen`` OS process (own interpreter, workers and per-node
  cache directory) whose replication transport is the verbs clients
  speak (snapshots ship whole, ``mutate`` ships each logged change); a
  joining node's cache is warmed with a donor's content-addressed
  entries, so already-reduced groups cost it zero forward reductions.

* **Failure model.**  One registry per failure domain, and whoever
  pops an entry owns its resolve.  What fails in remote mode is a
  node's *connection*, so the connection's pending map is the registry
  for every tenant's work on that node.  Every way a shard leaves —
  connection loss, failed health check or decommission — is one
  eviction, :meth:`_shard_down`: it drops the shard from the ring,
  drains its registry and hands the entries to
  :func:`~repro.service.pool.settle_lost`, the same function a pool's
  worker-death path uses: routed work is submitted again *on the
  original future* and recomputes its own placement over the surviving
  ring (exactly-once, the pool's crash-resubmission contract carried
  across machine boundaries), broadcast acks resolve benignly, and an
  entry nobody can take — its tenant was detached meanwhile, or no
  shard survives — fails with the typed ``ShardUnreachable``.  A local
  shard hands nothing over: its pools close gracefully and drain their
  own queues.  Each eviction logs one record on ``repro.service``.

Routing and pool mutation are enqueue-only and happen under one router
lock; slow operations (process spawns in attach/reload/rescale, pool
drains, wire round-trips) happen outside it, so admin operations never
stall traffic.  The admin operations — attach, detach, reload, add and
remove — are serialised by a second, admin lock, so none of them ever
observes another half-done; traffic, eviction and :meth:`close` never
take it.
"""

from __future__ import annotations

import inspect
import logging
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from functools import cached_property, partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.reduction_cache import ReductionCache
from ..core.session import canonical_form
from ..engine.relation import Database, Delta
from ..queries.query import Query
from . import protocol
from .pool import Entry, Pool, WorkerPool, _gather, settle_lost, submit_many, submit_sql
from .remote import RemoteShardNode, ShardUnreachable
from .ring import HashRing

__all__ = ["RouterClosed", "ShardRouter", "UnknownTenant"]

_log = logging.getLogger("repro.service")


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


class _Snapshot:
    """One tenant database as an admin operation hands it to shards:
    cloned once by the router, encoded for the wire at most once, however
    many remote nodes receive it."""

    def __init__(self, db: Database):
        self.db = db

    @cached_property
    def encoded(self) -> dict:
        return protocol.encode_database(self.db)


class _LocalShard:
    """The in-process kind of the shard seam: one
    :class:`~repro.service.pool.WorkerPool` per tenant over the router's
    shared ``cache_dir``.  The shared cache leaves nothing to warm or
    purge per shard, a closing pool drains its own queue so there is
    nothing to hand over, and it always answers a ping."""

    def __init__(self, name: str, build: Callable[[Database, str], WorkerPool]):
        self.name = name
        self._build = build

    def attach(self, tenant: str, snapshot: _Snapshot) -> WorkerPool:
        return self._build(snapshot.db.clone(), tenant)

    def swap(self, tenant: str, snapshot: _Snapshot, pool: Pool) -> WorkerPool:
        return self.attach(tenant, snapshot)  # the router closes ``pool``

    def detach(self, tenant: str, purge: bool = True) -> int:
        return 0

    def warm(self, donors: Sequence[Any]) -> int:
        return 0

    def drain(self) -> list[Entry]:
        return []

    def ping(self, timeout: float = 5.0) -> bool:
        return True

    def close(self) -> None:
        pass


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
    ``None``: each node owns a per-node cache warmed over the wire).
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
        self._remote = remote_shards is not None
        if self._remote:
            if not remote_shards:
                raise ValueError("need at least one remote shard")
            shards = tuple(remote_shards)
        if not shards:
            raise ValueError("need at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard names in {shards!r}")
        if workers_per_shard < 1:
            raise ValueError("workers_per_shard must be at least 1")
        if health_interval is not None and health_interval <= 0:
            raise ValueError("health_interval must be positive")
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.workers_per_shard = workers_per_shard
        # a misspelt (or retired) pool option is a TypeError here, not
        # at the first attach — or never, in remote mode
        inspect.signature(WorkerPool).bind_partial(**pool_options)
        self._pool_options = pool_options
        self._connect_timeout = connect_timeout
        self._ring = HashRing(shards, replicas=replicas)
        self._tenants: dict[str, _Tenant] = {}
        self._lock = threading.RLock()
        self._admin_lock = threading.Lock()
        self._closed = False
        # (a node lost while later ones are dialed is evicted as usual)
        self._shards: dict[str, _LocalShard | RemoteShardNode] = {}
        try:
            for name in shards:
                self._shards[name] = self._dial(name, (remote_shards or {}).get(name))
        except Exception:
            for shard in self._shards.values():
                shard.close()
            raise
        # admin operations (attach/reload/rescale) spawn processes; one
        # serial executor keeps them ordered and off the event loop
        self._admin = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-router-admin"
        )
        self._health_stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        if health_interval is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                args=(health_interval,),
                name="repro-router-health",
                daemon=True,
            )
            self._health_thread.start()

    def _dial(
        self, name: str, address: tuple[str, int] | None
    ) -> _LocalShard | RemoteShardNode:
        """The one place a shard's kind is chosen: a coordinator dials
        the standalone node at ``address``, a local router builds its
        pools in process."""
        if self._remote:
            if address is None:
                raise ValueError("a remote router needs the new shard's (host, port)")
            host, port = address
            return RemoteShardNode(
                name,
                str(host),
                int(port),
                connect_timeout=self._connect_timeout,
                on_down=self._node_down,
            )
        if address is not None:
            raise ValueError("local shards have no address")
        # late-bound: _build_pool is the one place a local pool is built
        return _LocalShard(name, lambda db, tenant: self._build_pool(db, tenant))

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
            if self._remote:
                info["addresses"] = {
                    name: [node.host, node.port]
                    for name, node in self._shards.items()
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
        with self._admin_lock:
            with self._lock:
                if self._closed:
                    raise RouterClosed("router is closed")
                if tenant in self._tenants:
                    raise ValueError(f"tenant {tenant!r} is already attached")
                shards = dict(self._shards)
            state = _Tenant(tenant, db.clone())
            snapshot = _Snapshot(state.master)
            try:
                for name, shard in shards.items():
                    state.pools[name] = shard.attach(tenant, snapshot)
                with self._lock:
                    if self._closed:
                        raise RouterClosed("router is closed")
                    # a shard evicted while we were attaching must not
                    # keep a pool: its registry is settled, so every
                    # broadcast through it would fail
                    state.pools = {
                        name: pool
                        for name, pool in state.pools.items()
                        if name in self._shards
                    }
                    self._tenants[tenant] = state
            except Exception:
                for name, pool in state.pools.items():
                    pool.terminate()
                    shards[name].detach(tenant)
                raise
        return {
            "tenant": tenant,
            "shards": len(state.pools),
            "relations": list(state.master.relation_names),
            "size": state.master.size,
        }

    def detach_tenant(self, tenant: str, purge: bool = True) -> dict:
        """Detach ``tenant``: close its pools on every shard (draining
        queued work) and — with ``purge`` — evict exactly the cached
        reductions no other tenant's namespace references (in remote
        mode, on every node's own cache directory)."""
        with self._admin_lock:
            with self._lock:
                state = self._tenants.pop(tenant, None)
                shards = dict(self._shards)
            if state is None:
                raise UnknownTenant(tenant)
            purged = 0
            for name, pool in state.pools.items():
                pool.close()
                # work still in flight on a node that dies from here on
                # finds no pool at eviction and fails typed
                if name in shards:
                    purged += shards[name].detach(tenant, purge)
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
        """Grow the ring by one node.  The new shard serves a snapshot of
        each tenant's master (in remote mode, ``address`` names the
        already-running shard process to dial; its per-node cache is
        first warmed by shipping the other nodes' content-addressed
        entries over the wire), caught up from the delta log (mutations
        accepted meanwhile are replayed — replays are idempotent, so
        overlap with the snapshot is harmless), and only then does the
        node join the ring: a group is never routed to a shard that
        cannot serve it.  Over the shared cache the new shard warms
        content-addressed and performs zero forward reductions for
        already-reduced groups."""
        with self._admin_lock:
            with self._lock:
                if self._closed:
                    raise RouterClosed("router is closed")
                if name in self._ring:
                    raise ValueError(f"shard {name!r} is already in the ring")
                donors = list(self._shards.values())
                snapshots = {
                    tenant: (state, state.master.version, _Snapshot(state.master.clone()))
                    for tenant, state in self._tenants.items()
                }
            shard = self._dial(name, address)
            pools: dict[str, Pool] = {}
            try:
                # warm BEFORE attaching: the new pools then build their
                # sessions over a cache that already holds every donor
                # reduction, so those groups cost zero forward reductions
                shipped = shard.warm(donors)
                for tenant, (_state, _v0, snapshot) in snapshots.items():
                    pools[tenant] = shard.attach(tenant, snapshot)
                with self._lock:
                    if self._closed:
                        raise RouterClosed("router is closed")
                    # every replay before any install: a trimmed change
                    # log must leave no tenant half-added
                    for tenant, (state, v0, _snapshot) in snapshots.items():
                        self._replay(state.master, v0, [pools[tenant]])
                    for tenant, (state, _v0, _snapshot) in snapshots.items():
                        state.pools[name] = pools[tenant]
                    self._shards[name] = shard
                    self._ring.add(name)
                    shards = len(self._ring)
            except Exception:
                for pool in pools.values():
                    pool.terminate()
                shard.close()
                raise
        report = {"shard": name, "shards": shards, "tenants": sorted(snapshots)}
        if self._remote:
            report["cache_entries_shipped"] = shipped
        return report

    def remove_shard(self, name: str) -> dict:
        """Shrink the ring by one node, through the same eviction a
        failed health check uses: the node leaves the ring first — its
        ~1/N of the groups remap to survivors, every other group keeps
        its placement — then its pools are closed.  A local pool closes
        *gracefully* (queued tasks drain and answer); a remote node's
        in-flight work is resubmitted to survivors and still answers."""
        with self._admin_lock:
            with self._lock:
                if self._closed:
                    raise RouterClosed("router is closed")
                if name not in self._ring:
                    raise ValueError(f"shard {name!r} is not in the ring")
                if len(self._ring) == 1:
                    raise ValueError("cannot remove the last shard")
            down = self._shard_down(name, "decommissioned")
        report = {key: down[key] for key in ("shard", "shards", "tenants")}
        if self._remote:
            report["resubmitted"] = down["resubmitted"]
        return report

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def _node_down(
        self, shard: _LocalShard | RemoteShardNode, reason: str = "connection_lost"
    ) -> None:
        """Connection-loss callback (and the health loop's verdict),
        fired while the node's unanswered entries are still pending —
        the eviction drains and settles them."""
        try:
            self._shard_down(shard.name, reason)
        except Exception:  # pragma: no cover - eviction must not raise
            _log.exception("evicting shard %s failed", shard.name)

    def _shard_down(self, name: str, reason: str) -> dict:
        """Take shard ``name`` out — the one eviction path, for every
        ``reason`` (``connection_lost``, ``health_check`` or
        ``decommissioned``).  Under the router lock it leaves the ring
        and every tenant's pool map and its drained registry is settled
        (see the module docstring's failure model), so no new work can
        be routed to it mid-eviction and a concurrent :meth:`submit`
        sees either the full fleet or the survivors.  Its pools close
        outside the lock: a local pool's graceful drain must never stall
        traffic."""
        with self._lock:
            shard = self._shards.pop(name, None)
            if name in self._ring:
                self._ring.remove(name)
            pools = [
                state.pools.pop(name)
                for state in self._tenants.values()
                if name in state.pools
            ]

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
                shard.drain() if shard is not None else (),
                resubmit,
                ShardUnreachable(
                    f"shard {name!r} died and no surviving shard can "
                    f"take the work"
                ),
            )
            shards = len(self._ring)
        for pool in pools:
            pool.close()
        record = {
            "shard": name,
            "reason": reason,
            "resubmitted": resubmitted,
            "failed": failed,
        }
        if shard is not None:
            shard.close()
            _log.log(
                logging.INFO if reason == "decommissioned" else logging.WARNING,
                "shard %(shard)s down (%(reason)s): %(resubmitted)d "
                "resubmitted, %(failed)d failed",
                record,
                extra=record,
            )
        return {**record, "shards": shards, "tenants": len(pools)}

    def _health_loop(self, interval: float) -> None:
        """Ping every shard each ``interval`` seconds (a remote node
        answers the cheap ``ring`` verb; a local shard always answers);
        evict the ones that are down or silent.  Eviction is how a
        *hung* (not crashed) node's in-flight work fails over: the
        eviction drains the connection's registry and resubmits, then
        closes the connection — a late reply finds nothing pending."""
        timeout = min(interval, 5.0)
        while not self._health_stop.wait(interval):
            with self._lock:
                shards = list(self._shards.values())
            for shard in shards:
                if self._health_stop.is_set():
                    return
                if not shard.ping(timeout=timeout):
                    self._node_down(shard, "health_check")

    # ------------------------------------------------------------------
    # hot-reload
    # ------------------------------------------------------------------

    @staticmethod
    def _replay(
        master: Database,
        since: int,
        pools: Iterable[Pool],
        onto: Database | None = None,
    ) -> int:
        """Replay ``master``'s tuple-level changes after version
        ``since`` onto ``pools`` (and the database ``onto``): the
        catch-up of an admin operation that snapshotted at ``since``.
        Returns how many changes were replayed."""
        logged = master.changes_since(since)
        if logged is None:
            raise RuntimeError(
                "change log trimmed during the operation; retry"
            )
        replayed = [d for d in logged if d.is_tuple_level]
        for delta in replayed:
            if onto is not None:
                onto.apply_delta(delta)
            for pool in pools:
                pool.mutate(delta.kind, delta.relation, delta.tuple)
        return len(replayed)

    def reload(self, tenant: str, db: Database) -> dict:
        """Hot-swap ``tenant``'s served database for ``db`` under live
        traffic: snapshot + delta replay.  Each shard swaps in the
        snapshot while the old pools keep serving (a local shard builds
        new pools; a remote node swaps its own and keeps its pool);
        mutations accepted meanwhile are replayed from the old master's
        delta log onto the new master and every resulting pool — replays
        are idempotent under set semantics, so the fleet converges no
        matter how the swap interleaved with traffic; the swap is atomic
        under the router lock; replaced pools close gracefully
        afterwards, so requests in flight at swap time still answer
        (from the old data — the same answer they'd have gotten a moment
        earlier)."""
        with self._admin_lock:
            state = self._tenant(tenant)
            with self._lock:
                if self._closed:
                    raise RouterClosed("router is closed")
                v0 = state.master.version
                old = dict(state.pools)
                shards = {name: self._shards[name] for name in old}
            snapshot = _Snapshot(db.clone())
            swapped: dict[str, Pool] = {}
            try:
                for name, pool in old.items():
                    # outside the lock: traffic keeps flowing to old data
                    try:
                        swapped[name] = shards[name].swap(tenant, snapshot, pool)
                    except ShardUnreachable:
                        continue  # its eviction hands the node's work over
                with self._lock:
                    if self._closed:
                        raise RouterClosed("router is closed")
                    # (a shard evicted meanwhile has left state.pools)
                    pools = {
                        name: swapped.get(name, pool)
                        for name, pool in state.pools.items()
                    }
                    replayed = self._replay(
                        state.master, v0, pools.values(), snapshot.db
                    )
                    replaced = [
                        pool
                        for name, pool in state.pools.items()
                        if pools[name] is not pool
                    ]
                    state.pools, state.master = pools, snapshot.db
                    state.reloads += 1
            except Exception:
                for name, pool in swapped.items():
                    if pool is not old[name]:
                        pool.terminate()
                raise
            for pool in replaced:
                pool.close()
        report = {
            "tenant": tenant,
            "replayed": replayed,
            "version": snapshot.db.version,
            "shards": len(pools),
        }
        if self._remote:
            report["reloaded"] = len(swapped)
        return report

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
        """Close every pool gracefully and stop the admin executor, the
        health thread and the shards (a remote node's connection: what
        is still in flight on it resolves, typed, rather than
        hanging)."""
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10)
        with self._lock:
            if self._closed:
                return {"tenants": {}}
            self._closed = True
            tenants = dict(self._tenants)
            shards = list(self._shards.values())
            self._shards = {}
        reports = {
            tenant: {name: pool.close() for name, pool in state.pools.items()}
            for tenant, state in tenants.items()
        }
        for shard in shards:
            settle_lost(
                shard.drain(), None, RouterClosed("router is closed")
            )
            shard.close()
        self._admin.shutdown(wait=True)
        return {"tenants": reports}

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
