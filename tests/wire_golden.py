"""The wire, frame by frame, on both serving tiers.

``frames(tier)`` is one valid request per verb followed by the malformed
matrix *generated from the verb table's schemas* — every verb × every
required field, once missing and once with the wrong JSON type — plus
unparsable query texts and unframeable ops.  ``golden/wire_frames.json``
holds those requests next to the responses the servers of the commit
*before* the verb table gave (captured by running :func:`exchange`
against that checkout), so equality on this one pins wire compatibility.

:class:`Tiers` starts one pool-tier and one router-tier server for a
whole test module; everything is seeded, so ids, versions and counts
repeat exactly and only digests, pids and counters are normalised away.
"""

import asyncio
import json
import socket
import tempfile
import threading
from pathlib import Path

from repro.intervals import Interval
from repro.queries import parse_query
from repro.service import RouterServer, ServiceServer, ShardRouter, WorkerPool
from repro.service.protocol import dump_line, parse_line
from repro.workloads import random_database

GOLDEN = Path(__file__).resolve().parent / "golden" / "wire_frames.json"

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
SQL = "SELECT COUNT(*) FROM R r, S s WHERE r.B OVERLAPS s.B"
TENANT = "acme"
FIRST_KEY = "<the first key cache_keys listed>"
WRONG_TYPE = {str: 7, list: "x", dict: 3}
BAD_TEXT = {
    "query": "not a query ∧∧",
    "queries": ["not a query ∧∧"],
    "sql": "SELECT COUNT(* FROM R r",
}
#: the router tier's valid requests, in an order every one succeeds in;
#: the malformed matrix runs where ``None`` stands (a tenant attached,
#: so unparsable SQL gets as far as the compiler)
ROUTER_ORDER = (
    "ring", "ring_add", "ring_remove", "attach_tenant", "evaluate", "count",
    "evaluate_many", "sql", "explain", "mutate", "stats", "cache_keys",
    "cache_fetch", "cache_push", None, "reload", "detach_tenant",
)
UNFRAMEABLE = ({"op": "frobnicate"}, {}, {"op": ["evaluate"]}, {"op": 7})


def database(seed: int = 5):
    return random_database(parse_query(TRIANGLE), 8, seed=seed)


def samples() -> dict:
    """One valid argument list per verb, keyed by wire name."""
    triangle = parse_query(TRIANGLE)
    return {
        "evaluate": (triangle,),
        "count": (triangle,),
        "evaluate_many": ([triangle, parse_query("R([X],[Y]) ∧ S([Y],[Z])")],),
        "sql": (SQL,),
        "explain": (SQL,),
        "mutate": ("insert", "R", (Interval(1.0, 2.5), Interval(3, 4))),
        "stats": (),
        "attach_tenant": (TENANT, database()),
        "detach_tenant": (TENANT, True),
        "reload": (TENANT, database(seed=6)),
        "ring": (),
        "ring_add": ("s1", ("127.0.0.1", 7001)),
        "ring_remove": ("s1",),
        "cache_keys": (),
        "cache_fetch": (FIRST_KEY,),
        "cache_push": ("0" * 64, b"not a cache frame"),
    }


def frames(tier: str) -> list[dict]:
    """The tier's whole conversation, ids 1..n."""
    from repro.service.protocol import POOL, TENANT as TENANT_FIELD, VERBS

    routed = tier != POOL
    args = dict(samples(), ring_add=("s1",))  # in-process shards have no address

    def stamp(verb) -> dict:
        return {"tenant": TENANT} if routed and verb.tenant else {}

    valid = {
        name: verb.frame(*args[name], **stamp(verb))
        for name, verb in VERBS.items()
        if routed or verb.tier == POOL
    }
    malformed: list[dict] = []
    for name, frame in valid.items():
        verb = VERBS[name]
        required = [f for f in verb.fields if f.required]
        if stamp(verb):
            required.insert(0, TENANT_FIELD)
        for field in required:
            malformed.append({k: v for k, v in frame.items() if k != field.name})
            malformed.append({**frame, field.name: WRONG_TYPE[field.kind]})
        for field in verb.fields:
            if field.name in BAD_TEXT:
                malformed.append({**frame, field.name: BAD_TEXT[field.name]})
    malformed.extend(UNFRAMEABLE)
    if not routed:
        malformed.append({"op": "ring"})  # a router-tier verb, one tier down
    order = ROUTER_ORDER if routed else (*valid, None)
    conversation: list[dict] = []
    for name in order:
        conversation.extend(malformed if name is None else [valid[name]])
    return [{"id": i, **frame} for i, frame in enumerate(conversation, start=1)]


def normalise(request: dict, response: dict) -> dict:
    """Blank what legitimately differs between two runs: cache digests,
    pids, timings and counters."""
    if not response.get("ok"):
        return response
    op, result = request.get("op"), response["result"]
    if op == "stats":
        result = {
            "keys": sorted(result),
            "server": sorted(result["server"]),
            "requests": result["server"]["requests"],
        }
    elif op == "cache_keys":
        result = ["<key>"] * len(result)
    elif op == "cache_fetch":
        result = {name: f"<{name}>" for name in sorted(result)}
    return {**response, "result": result}


def exchange(address: tuple, requests: list[dict]) -> list[dict]:
    """Send ``requests`` one by one over one connection; the normalised
    responses.  A hang is a ``socket.timeout``."""
    responses: list[dict] = []
    first_key = None
    with socket.create_connection(address, timeout=120) as sock:
        stream = sock.makefile("rwb")
        for request in requests:
            if request.get("key") == FIRST_KEY:
                request = {**request, "key": first_key}
            stream.write(dump_line(request))
            stream.flush()
            response = parse_line(stream.readline())
            if request.get("op") == "cache_keys" and response.get("ok"):
                first_key = response["result"][0]
            responses.append(normalise(request, response))
    return responses


class Tiers:
    """One pool-tier and one router-tier server on loopback, served from
    a background event loop; ``addresses[tier]`` to dial them."""

    def __enter__(self) -> "Tiers":
        self._scratch = tempfile.TemporaryDirectory()
        self.pool = WorkerPool(database(), workers=1)
        self.router = ShardRouter(
            shards=("s0",), cache_dir=self._scratch.name, workers_per_shard=1
        )
        self.servers = {
            "pool": ServiceServer(self.pool),
            "router": RouterServer(self.router),
        }
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.addresses = {
            tier: self._run(server.start()) for tier, server in self.servers.items()
        }
        return self

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(60)

    def __exit__(self, *exc) -> None:
        try:
            for server in self.servers.values():
                self._run(server.stop())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()
            self.router.close()
            self.pool.close()
            self._scratch.cleanup()


def capture() -> dict:
    """Run the golden file's requests against whatever checkout is on
    ``PYTHONPATH``; the file's new contents."""
    golden = json.loads(GOLDEN.read_text())
    captured = {}
    with Tiers() as tiers:
        for tier, pairs in golden.items():
            requests = [request for request, _ in pairs]
            responses = exchange(tiers.addresses[tier], requests)
            captured[tier] = [list(pair) for pair in zip(requests, responses)]
    return captured


if __name__ == "__main__":  # pragma: no cover - the capture procedure
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f' "{tier}": [\n'
            + ",\n".join(
                "  " + json.dumps(pair, ensure_ascii=False) for pair in pairs
            )
            + "\n ]"
            for tier, pairs in capture().items()
        )
        + "\n}\n"
    )
