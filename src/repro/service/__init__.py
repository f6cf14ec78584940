"""repro.service — concurrent query serving over the cached substrate.

The sessions-and-caching layers (PR 1–3) made the forward reduction an
amortised, content-addressed, delta-patchable artifact; this package is
the first consumer that turns that substrate into a *service*:

* :mod:`repro.service.protocol` — the line-delimited JSON wire format
  and the **verb table**: one entry per verb (``evaluate``, ``count``,
  ``evaluate_many``, ``sql``, ``explain``, ``mutate``, ``stats`` and the
  router-tier admin and cache-shipping verbs) holding its schema,
  client-side cast, placement and lost-ack outcome.  Every other module
  here reads the table instead of restating a verb; values are
  validated where they are decoded;
* :mod:`repro.service.pool` — the pool contract (:class:`Pool`: what
  work is placed on), written once with its batch grouping, SQL
  routing and lost-work settlement, and :class:`WorkerPool`, which
  meets it with N worker processes, each owning a
  :class:`~repro.core.session.QuerySession` over the *shared*
  persistent reduction cache.  Work is partitioned by canonical-query
  group, so isomorphic queries land on the same worker and each
  reduction is computed once cluster-wide;
* :mod:`repro.service.server` — an asyncio front-end with admission
  control: a bounded in-flight window, per-request deadlines, typed
  backpressure responses, and one dispatch for both tiers
  (:class:`ServiceServer` over a pool, :class:`RouterServer` over a
  router with the request's tenant bound first).  Mutations go through
  the logged :class:`~repro.engine.relation.Database` delta API, so
  warm workers patch cached reductions instead of rebuilding them;
* :mod:`repro.service.client` — the two wire clients, whose verb
  methods are generated from the table: the blocking, pipelined
  :class:`ServiceClient` (thread-safe; the coordinator dials shard
  nodes with it) and the asyncio :class:`AsyncServiceClient`;
* :mod:`repro.service.loadgen` — an open/closed-loop load harness that
  replays :mod:`repro.workloads`-generated request mixes against a
  server and reports throughput and latency percentiles;
* :mod:`repro.service.ring` / :mod:`repro.service.router` — the sharded
  router tier (PR 6): a consistent-hash :class:`HashRing` places
  canonical-form groups on N shard nodes (growing the ring remaps only
  ~1/N of the groups), a :class:`ShardRouter` serves multiple tenants
  whose pools share one namespaced content-addressed cache, mutations
  replicate through each tenant's delta log, and served databases
  hot-reload via snapshot + delta replay without dropping in-flight
  requests;
* :mod:`repro.service.remote` — remote shard nodes (PR 7): each shard a
  standalone ``repro shard --listen`` OS process speaking the same
  protocol, dialed by a coordinator :class:`ShardRouter` through
  :class:`RemoteShardNode` (a :class:`ServiceClient` under a ring
  name) and :class:`RemoteShardPool`.  Outstanding work
  lives in one registry per failure domain — a worker's, a node
  connection's — and whoever pops an entry owns its resolve, so dead
  shards are evicted and their in-flight work resubmitted to survivors
  on the original futures (exactly-once, the pool's crash contract
  across machine boundaries); a joining node's per-node cache is warmed
  by shipping content-addressed entries over the wire; the asyncio
  client learns the ring and dials shards directly.

``repro serve``, ``repro route``, ``repro shard`` and ``repro loadgen``
expose the server, the router tier, a standalone shard node and the
load harness on the command line.
"""

from .client import (
    AsyncServiceClient,
    BadQuery,
    ServiceClient,
    ServiceError,
    ShardUnreachable,
)
from .loadgen import LoadReport, generate_requests, run_load
from .pool import Pool, PoolClosed, WorkerCrash, WorkerPool
from .protocol import (
    ERROR_BAD_QUERY,
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_SHARD_UNREACHABLE,
    ERROR_SHUTTING_DOWN,
    decode_cache_entry,
    decode_database,
    decode_tuple,
    encode_cache_entry,
    encode_database,
    encode_tuple,
    error_response,
    ok_response,
    query_text,
)
from .remote import (
    RemoteShardNode,
    RemoteShardPool,
    ShardProcess,
    spawn_shard_process,
)
from .ring import HashRing, stable_digest
from .router import RouterClosed, ShardRouter, UnknownTenant
from .server import RouterServer, ServiceServer

__all__ = [
    "AsyncServiceClient",
    "BadQuery",
    "ServiceClient",
    "ServiceError",
    "ShardUnreachable",
    "LoadReport",
    "generate_requests",
    "run_load",
    "Pool",
    "PoolClosed",
    "WorkerCrash",
    "WorkerPool",
    "ERROR_BAD_QUERY",
    "ERROR_BAD_REQUEST",
    "ERROR_DEADLINE",
    "ERROR_INTERNAL",
    "ERROR_OVERLOADED",
    "ERROR_SHARD_UNREACHABLE",
    "ERROR_SHUTTING_DOWN",
    "decode_cache_entry",
    "decode_database",
    "decode_tuple",
    "encode_cache_entry",
    "encode_database",
    "encode_tuple",
    "error_response",
    "ok_response",
    "query_text",
    "RemoteShardNode",
    "RemoteShardPool",
    "ShardProcess",
    "spawn_shard_process",
    "HashRing",
    "stable_digest",
    "RouterClosed",
    "ShardRouter",
    "UnknownTenant",
    "RouterServer",
    "ServiceServer",
]
