"""The load harness: replay synthetic request mixes against a server.

Workloads are the UCQ-shaped traffic the service layer optimises for —
many near-isomorphic Boolean queries over shared relations (cf. Carmeli
& Kröll's enumeration-amortisation setting): :func:`generate_requests`
builds an isomorphism-heavy mix out of :mod:`repro.workloads` (variable
renamings and atom shuffles of a few base queries, optionally spiced
with counts and tuple-level mutations), and :func:`run_load` drives it

* **closed-loop** — ``concurrency`` virtual users, each issuing its
  next request as soon as the previous one answers: measures capacity;
* **open-loop** — requests fired at a fixed arrival ``rate``
  regardless of completions: measures behaviour *under* a given load,
  where overload must surface as typed backpressure instead of silent
  queueing collapse.

Reports carry throughput and latency percentiles and serialise to JSON
(the benchmark suite stores them under ``benchmarks/results/``).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..queries.query import Query
from ..workloads.generators import random_interval
from ..workloads.query_generator import isomorphic_variants
from .client import AsyncServiceClient, ServiceError
from .protocol import VERBS, query_text

__all__ = ["LoadReport", "generate_requests", "run_load"]


# ----------------------------------------------------------------------
# request-mix generation
# ----------------------------------------------------------------------


def _random_tuple(
    rng: random.Random, variables, domain: float, mean_length: float
) -> tuple:
    return tuple(
        random_interval(rng, domain, mean_length)
        if v.is_interval
        else rng.randint(0, int(domain))
        for v in variables
    )


def generate_requests(
    base_queries: Sequence[Query],
    total: int,
    seed: int = 0,
    variants_per_query: int = 10,
    count_fraction: float = 0.0,
    mutate_fraction: float = 0.0,
    domain: float = 1000.0,
    mean_length: float = 10.0,
    tenants: Sequence[str] | None = None,
) -> list[dict]:
    """``total`` wire-shaped requests (no ``id`` — the transport adds
    it): an isomorphism-heavy evaluate mix with optional count and
    mutation traffic.

    Each base query contributes ``variants_per_query`` renamed/shuffled
    isomorphic copies; every evaluate/count request samples one, so a
    canonicalizing server sees ``len(base_queries)`` reduction groups no
    matter how long the run is.  Mutations are tuple-level inserts and
    deletes against the base queries' relations (deletes preferentially
    target previously inserted tuples, so roughly half of them hit).

    ``tenants`` — for router-tier targets — stamps each request with a
    tenant drawn uniformly from the list, producing the mixed
    multi-tenant traffic the router smoke tests replay.  Mutations stay
    per-tenant coherent: a delete only targets a tuple previously
    inserted *for the same tenant*.
    """
    if not base_queries:
        raise ValueError("need at least one base query")
    if tenants is not None and not tenants:
        raise ValueError("tenants must be None or non-empty")
    rng = random.Random(seed)
    variants = [
        query_text(v)
        for q in base_queries
        for v in isomorphic_variants(q, variants_per_query, seed=seed)
    ]
    schemas = [
        (atom.relation, atom.variables)
        for q in base_queries
        for atom in q.atoms
    ]
    inserted: dict[str | None, list[tuple[str, tuple]]] = {}
    requests: list[dict] = []
    for _ in range(total):
        tenant = rng.choice(list(tenants)) if tenants is not None else None
        tag = {} if tenant is None else {"tenant": tenant}
        mine = inserted.setdefault(tenant, [])
        roll = rng.random()
        if roll < mutate_fraction:
            relation, variables = rng.choice(schemas)
            if mine and rng.random() < 0.5:
                kind = "delete"
                relation, values = mine.pop(rng.randrange(len(mine)))
            else:
                kind = "insert"
                values = _random_tuple(rng, variables, domain, mean_length)
                mine.append((relation, values))
            requests.append(VERBS["mutate"].frame(kind, relation, values, **tag))
        elif roll < mutate_fraction + count_fraction:
            requests.append(VERBS["count"].frame(rng.choice(variants), **tag))
        else:
            requests.append(VERBS["evaluate"].frame(rng.choice(variants), **tag))
    return requests


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


@dataclass
class LoadReport:
    """Throughput/latency digest of one load run."""

    mode: str
    requests: int = 0
    ok: int = 0
    duration_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list, repr=False)
    errors: dict[str, int] = field(default_factory=dict)
    ops: dict[str, int] = field(default_factory=dict)
    offered_rate: float | None = None

    def record(self, op: str, latency_s: float, error_code: str | None) -> None:
        self.requests += 1
        self.ops[op] = self.ops.get(op, 0) + 1
        self.latencies_ms.append(latency_s * 1e3)
        if error_code is None:
            self.ok += 1
        else:
            self.errors[error_code] = self.errors.get(error_code, 0) + 1

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        ordered = sorted(self.latencies_ms)
        return {
            "mode": self.mode,
            "requests": self.requests,
            "ok": self.ok,
            "errors": dict(self.errors),
            "ops": dict(self.ops),
            "duration_s": self.duration_s,
            "offered_rate_rps": self.offered_rate,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "mean": sum(ordered) / len(ordered) if ordered else 0.0,
                "p50": _percentile(ordered, 0.50),
                "p90": _percentile(ordered, 0.90),
                "p95": _percentile(ordered, 0.95),
                "p99": _percentile(ordered, 0.99),
                "max": ordered[-1] if ordered else 0.0,
            },
        }

    def summary(self) -> str:
        d = self.as_dict()
        lat = d["latency_ms"]
        errors = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.errors.items()))
            or "none"
        )
        return (
            f"{self.mode}-loop: {self.ok}/{self.requests} ok in "
            f"{self.duration_s:.2f}s = {self.throughput_rps:.1f} req/s | "
            f"latency ms p50 {lat['p50']:.1f}  p95 {lat['p95']:.1f}  "
            f"p99 {lat['p99']:.1f}  max {lat['max']:.1f} | errors: {errors}"
        )


# ----------------------------------------------------------------------
# the drivers
# ----------------------------------------------------------------------


async def _learn_ring(client: AsyncServiceClient) -> None:
    """Best-effort: enable client-side direct shard routing.  A target
    that is not a coordinator (or advertises no addresses) just leaves
    the client routing everything through the server it dialed."""
    try:
        await client.learn_ring()
    except (ServiceError, ConnectionError, OSError):
        pass


async def _issue(
    client: AsyncServiceClient, request: dict, report: LoadReport
) -> None:
    start = time.perf_counter()
    try:
        response = await client.route_request(request)
    except (ConnectionError, OSError):
        report.record(
            request.get("op", "?"), time.perf_counter() - start, "connection"
        )
        return
    latency = time.perf_counter() - start
    error = None if response.get("ok") else response["error"]["code"]
    report.record(request.get("op", "?"), latency, error)


async def _run_closed(
    host: str,
    port: int,
    requests: Sequence[dict],
    concurrency: int,
    direct: bool = False,
) -> LoadReport:
    report = LoadReport(mode="closed")
    queue: asyncio.Queue = asyncio.Queue()
    for request in requests:
        queue.put_nowait(request)

    async def user() -> None:
        async with AsyncServiceClient(host, port) as client:
            if direct:
                await _learn_ring(client)
            while True:
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                await _issue(client, request, report)

    start = time.perf_counter()
    await asyncio.gather(*(user() for _ in range(max(concurrency, 1))))
    report.duration_s = time.perf_counter() - start
    return report


async def _run_open(
    host: str,
    port: int,
    requests: Sequence[dict],
    rate: float,
    connections: int,
    direct: bool = False,
) -> LoadReport:
    report = LoadReport(mode="open", offered_rate=rate)
    clients: list[AsyncServiceClient] = []
    try:
        for _ in range(max(connections, 1)):
            # inside the try: a mid-list connect failure must still
            # close the clients (and read loops) already opened
            client = await AsyncServiceClient(host, port).connect()
            clients.append(client)
            if direct:
                await _learn_ring(client)
        interval = 1.0 / rate if rate > 0 else 0.0
        tasks: list[asyncio.Task] = []
        start = time.perf_counter()
        for i, request in enumerate(requests):
            target = start + i * interval
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client = clients[i % len(clients)]
            tasks.append(
                asyncio.ensure_future(_issue(client, request, report))
            )
        await asyncio.gather(*tasks)
        report.duration_s = time.perf_counter() - start
    finally:
        for client in clients:
            await client.close()
    return report


async def run_load(
    host: str,
    port: int,
    requests: Sequence[dict],
    mode: str = "closed",
    concurrency: int = 8,
    rate: float = 100.0,
    connections: int = 8,
    direct: bool = False,
) -> LoadReport:
    """Drive ``requests`` at the server and return a
    :class:`LoadReport`.  ``mode='closed'`` uses ``concurrency`` virtual
    users; ``mode='open'`` fires at ``rate`` requests/second over
    ``connections`` pipelined connections.  ``direct`` makes each
    client learn the coordinator's ring and dial the owning shard
    directly for evaluate/count traffic, falling back to the
    coordinator on remaps and failures."""
    if mode == "closed":
        return await _run_closed(host, port, requests, concurrency, direct)
    if mode == "open":
        return await _run_open(host, port, requests, rate, connections, direct)
    raise ValueError(f"unknown mode {mode!r}")
