"""The wire protocol in isolation (:mod:`repro.service.protocol`).

Property-style round-trip tests: seeded random generators drive many
cases through encode → JSON → decode and assert exact identity — for
tagged values (intervals, nested tuples, scalars), whole tuples and full
database snapshots.  The verb table is pinned from every side: each
verb's ``decode(encode(args))`` round-trips, every hop that reads the
table covers it, nothing outside its module compares an op against a
verb literal any more, and a pool-tier and a router-tier server answer
the schema-generated malformed-frame matrix with *typed* errors — and
every frame, valid or not, exactly as the servers before the table did
(``golden/wire_frames.json``).
"""

import ast
import inspect
import json
import random
import re
import socket
from pathlib import Path

import pytest

import wire_golden
from repro.engine.relation import Database
from repro.intervals import Interval
from repro.queries import parse_query
from repro.core.session import canonical_form
from repro.service import protocol
from repro.service.protocol import (
    CACHE_OPS,
    MUTATION_KINDS,
    OPS,
    ROUTER_ADMIN_OPS,
    ROUTER_OPS,
    ProtocolError,
    decode_cache_entry,
    decode_database,
    decode_tuple,
    decode_value,
    dump_line,
    encode_cache_entry,
    encode_database,
    encode_tuple,
    encode_value,
    error_response,
    ok_response,
    parse_line,
    query_text,
)
from repro.workloads import random_database

TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"


def random_value(rng: random.Random, depth: int = 0):
    """One random wire-encodable value: scalars, intervals, and nested
    tuples up to depth 3."""
    roll = rng.randrange(8 if depth < 3 else 6)
    if roll == 0:
        return None
    if roll == 1:
        return rng.random() < 0.5
    if roll == 2:
        return rng.randint(-(10**9), 10**9)
    if roll == 3:
        return rng.uniform(-1e6, 1e6)
    if roll == 4:
        return "".join(rng.choices("abc ∧ []{}\"\\\n", k=rng.randrange(8)))
    if roll == 5:
        left = rng.uniform(-100.0, 100.0)
        return Interval(left, left + rng.uniform(0.0, 50.0))
    return tuple(
        random_value(rng, depth + 1) for _ in range(rng.randrange(4))
    )


def through_json(payload):
    """The wire in miniature: what the far side actually receives."""
    return json.loads(json.dumps(payload))


class TestValueCodec:
    def test_values_round_trip_through_json(self):
        rng = random.Random(1234)
        for _ in range(500):
            value = random_value(rng)
            assert decode_value(through_json(encode_value(value))) == value

    def test_tuples_round_trip_through_framing(self):
        rng = random.Random(99)
        for _ in range(100):
            t = tuple(random_value(rng) for _ in range(rng.randrange(1, 5)))
            line = dump_line({"id": 1, "tuple": encode_tuple(t)})
            assert decode_tuple(parse_line(line)["tuple"]) == t

    def test_interval_endpoints_survive_as_floats(self):
        decoded = decode_value(through_json(encode_value(Interval(0.1, 0.3))))
        assert decoded == Interval(0.1, 0.3)
        assert decoded.left == 0.1 and decoded.right == 0.3

    @pytest.mark.parametrize(
        "bad", [{1, 2}, object(), b"bytes", Database()]
    )
    def test_unencodable_values_are_typed_errors(self, bad):
        with pytest.raises(ProtocolError):
            encode_value(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"frob": []},
            {"interval": [1, 2], "extra": 3},
            {},
            [1, 2],
            {"tuple": [1], "interval": [1, 2]},
            # endpoints are two finite, ordered, non-bool numbers
            {"interval": ["a", "b"]},
            {"interval": [float("nan"), 1]},
            {"interval": [True, 2]},
            {"interval": [1, float("inf")]},
            {"interval": [3, 1]},
            {"interval": [1, None]},
            {"interval": [1, 2, 3]},
            {"interval": 5},
            {"tuple": [{"interval": [2, 1]}]},
            {"tuple": "ab"},
            float("nan"),
            float("-inf"),
        ],
    )
    def test_undecodable_values_are_typed_errors(self, bad):
        with pytest.raises(ProtocolError):
            decode_value(bad)

    def test_tuple_payload_must_be_a_list(self):
        with pytest.raises(ProtocolError):
            decode_tuple({"tuple": []})


class TestDatabaseCodec:
    def test_random_databases_round_trip(self):
        q = parse_query(TRIANGLE)
        for seed in range(5):
            db = random_database(q, 15, seed=seed)
            decoded = decode_database(through_json(encode_database(db)))
            assert decoded.relation_names == db.relation_names
            for relation in db:
                twin = decoded[relation.name]
                assert twin.schema == relation.schema
                assert twin.tuples == relation.tuples

    def test_empty_database_round_trips(self):
        assert decode_database(encode_database(Database())).size == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "not an object",
            {"R": "not an object"},
            {"R": {"schema": ["x", "y"]}},  # missing tuples
            {"R": {"schema": ["x"], "tuples": [], "extra": 1}},
            {"R": {"schema": "xy", "tuples": []}},
            {"R": {"schema": [1, 2], "tuples": []}},
            {"R": {"schema": ["x"], "tuples": "nope"}},
            # arity mismatch: the Relation ValueError is re-raised typed
            {"R": {"schema": ["x", "y"], "tuples": [[1]]}},
            # duplicate attribute: likewise
            {"R": {"schema": ["x", "x"], "tuples": []}},
            # attach / reload ship whole databases through the value
            # decoder: a bad endpoint anywhere rejects the snapshot
            {"R": {"schema": ["x"], "tuples": [[{"interval": ["a", "b"]}]]}},
            {"R": {"schema": ["x"], "tuples": [[{"interval": [float("nan"), 1]}]]}},
            {"R": {"schema": ["x", "y"], "tuples": [[1, float("inf")]]}},
        ],
    )
    def test_malformed_database_payloads_are_typed_errors(self, bad):
        with pytest.raises(ProtocolError):
            decode_database(bad)


class TestCacheEntryCodec:
    def test_round_trips_arbitrary_bytes(self):
        rng = random.Random(7)
        for _ in range(50):
            raw = rng.randbytes(rng.randrange(0, 4096))
            key = "%064x" % rng.getrandbits(256)
            payload = encode_cache_entry(key, raw)
            assert json.loads(dump_line(payload)) == payload
            assert decode_cache_entry(payload) == (key, raw)

    def test_superset_payloads_decode(self):
        # the wire request itself carries the entry fields, so id/op
        # riding along must not break decoding
        payload = encode_cache_entry("k", b"envelope")
        payload.update({"id": 3, "op": "cache_push"})
        assert decode_cache_entry(payload) == ("k", b"envelope")

    def test_corruption_is_a_typed_error(self):
        good = encode_cache_entry("k", b"some envelope bytes")
        for breakage in (
            {"data": good["data"][:-4] + "AAAA"},  # payload swapped
            {"sha256": "0" * 64},  # digest mismatch
            {"data": "!!! not base64 !!!"},
            {"data": 7},
            {"sha256": None},
            {"key": 9},
        ):
            with pytest.raises(ProtocolError):
                decode_cache_entry({**good, **breakage})
        for malformed in (None, [], "x", {"key": "k"}, {}):
            with pytest.raises(ProtocolError):
                decode_cache_entry(malformed)
        with pytest.raises(ProtocolError):
            encode_cache_entry("k", "not bytes")


class TestVerbsAndFraming:
    def test_router_verb_table_extends_the_pool_verbs(self):
        assert set(OPS) <= set(ROUTER_OPS)
        assert set(ROUTER_ADMIN_OPS) | set(CACHE_OPS) == set(ROUTER_OPS) - set(
            OPS
        )
        assert not set(ROUTER_ADMIN_OPS) & set(OPS)
        assert not set(CACHE_OPS) & (set(OPS) | set(ROUTER_ADMIN_OPS))
        assert "attach_tenant" in ROUTER_ADMIN_OPS
        assert set(CACHE_OPS) == {"cache_keys", "cache_fetch", "cache_push"}
        assert set(MUTATION_KINDS) == {"insert", "delete"}

    def test_query_text_round_trips_to_an_isomorphic_query(self):
        for text in (TRIANGLE, "R([A],[B]) ∧ R([B],[C]) ∧ S([A],[C])"):
            q = parse_query(text)
            assert (
                canonical_form(parse_query(query_text(q))).key
                == canonical_form(q).key
            )

    def test_frames_and_response_shapes(self):
        message = {"id": 5, "op": "stats"}
        assert parse_line(dump_line(message)) == message
        assert ok_response(5, [1]) == {"id": 5, "ok": True, "result": [1]}
        err = error_response(6, "overloaded", "full", inflight=9)
        assert err["error"] == {
            "code": "overloaded",
            "message": "full",
            "inflight": 9,
        }
        with pytest.raises(ProtocolError):
            parse_line(b"{not json\n")
        with pytest.raises(ProtocolError):
            parse_line(b"[1, 2, 3]\n")


class TestMalformedFramesOverTheWire:
    """A live RouterServer (no tenants attached — no worker processes)
    must answer every malformed frame with a typed ``bad_request`` and
    keep the connection alive."""

    def test_typed_errors_for_malformed_frames(self):
        import asyncio

        from repro.service import RouterServer, ShardRouter

        frames = [
            b"garbage\n",
            b"[1,2]\n",
            dump_line({"id": 1, "op": "frobnicate"}),
            dump_line({"id": 2}),  # no op at all
            dump_line({"id": 3, "op": "evaluate", "query": TRIANGLE}),  # no tenant
            dump_line({"id": 4, "op": "evaluate", "tenant": "t", "query": 7}),
            dump_line({"id": 5, "op": "evaluate_many", "tenant": "t", "queries": [1]}),
            dump_line(
                {
                    "id": 6,
                    "op": "mutate",
                    "tenant": "t",
                    "kind": "truncate",
                    "relation": "R",
                    "tuple": [],
                }
            ),
            dump_line({"id": 7, "op": "attach_tenant", "tenant": "t", "database": 3}),
            dump_line(
                {
                    "id": 8,
                    "op": "attach_tenant",
                    "tenant": "t",
                    "database": {"R": {"schema": ["x"]}},
                }
            ),
            dump_line({"id": 9, "op": "reload", "tenant": "t"}),  # no database
            dump_line({"id": 10, "op": "detach_tenant", "tenant": "t", "purge": "yes"}),
            dump_line({"id": 11, "op": "ring_add"}),  # no shard
            dump_line({"id": 12, "op": "ring_remove", "shard": "ghost"}),
        ]

        def body(host, port):
            responses = []
            with socket.create_connection((host, port), timeout=30) as sock:
                stream = sock.makefile("rwb")
                for frame in frames:
                    stream.write(frame)
                    stream.flush()
                    responses.append(parse_line(stream.readline()))
                # the connection survived all of it
                stream.write(dump_line({"id": 99, "op": "ring"}))
                stream.flush()
                responses.append(parse_line(stream.readline()))
            return responses

        router = ShardRouter(shards=("s0", "s1"))
        server = RouterServer(router)

        async def driver():
            host, port = await server.start()
            try:
                return await asyncio.to_thread(body, host, port)
            finally:
                await server.stop()

        try:
            responses = asyncio.run(driver())
        finally:
            router.close()

        *errors, final = responses
        assert len(errors) == len(frames)
        for response in errors:
            assert response["ok"] is False, response
            assert response["error"]["code"] == protocol.ERROR_BAD_REQUEST
        assert final["ok"] is True
        assert sorted(final["result"]["nodes"]) == ["s0", "s1"]


# ----------------------------------------------------------------------
# the verb table, from every side that reads it
# ----------------------------------------------------------------------

SERVICE = Path(protocol.__file__).resolve().parent
#: everything that could grow an ``if op == "..."`` chain back
DISPATCHERS = sorted(
    path for path in SERVICE.glob("*.py") if path.name != "protocol.py"
) + [SERVICE.parent / "cli.py"]


def verb_comparisons(source: str) -> list[str]:
    """Every comparison in ``source`` of something op-like (``op``,
    ``request["op"]``, ``verb.name``) against a verb literal or a
    collection holding one — what the verb table exists to replace."""

    def names_a_verb(node: ast.AST) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_a_verb(element) for element in node.elts)
        return isinstance(node, ast.Constant) and node.value in protocol.VERBS

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(names_a_verb(operand) for operand in operands) and any(
                re.search(r"\bop\b|\.name\b", ast.unparse(operand))
                for operand in operands
            ):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def comparable(value):
    """Arguments as something ``==`` works on (a Database has none)."""
    if isinstance(value, Database):
        return {r.name: (tuple(r.schema), frozenset(r.tuples)) for r in value}
    if isinstance(value, (tuple, list)):
        return type(value)(comparable(v) for v in value)
    return value


class TestVerbTable:
    def test_every_verb_round_trips_its_sample_through_the_wire(self):
        samples = wire_golden.samples()
        assert set(samples) == set(protocol.VERBS)
        for name, verb in protocol.VERBS.items():
            frame = verb.frame(*samples[name])
            assert frame["op"] == name
            received = parse_line(dump_line({"id": 1, **frame}))
            assert received == {"id": 1, **frame}, name  # JSON-safe as built
            assert comparable(verb.decode(received)) == comparable(
                samples[name]
            ), name

    def test_encode_rejects_what_the_schema_does_not_declare(self):
        sql = protocol.VERBS["sql"]
        assert sql.encode(sql="SELECT 1") == sql.encode("SELECT 1")
        for bad in (lambda: sql.encode(), lambda: sql.encode("a", "b"),
                    lambda: sql.encode("a", frob=1)):
            with pytest.raises(TypeError):
                bad()
        # an optional field left at None stays off the wire
        assert protocol.VERBS["ring_add"].encode("s1") == {"shard": "s1"}

    def test_the_exported_op_tuples_are_derived_from_the_table(self):
        by_tier = {
            tier: [n for n, v in protocol.VERBS.items() if v.tier == tier]
            for tier in (protocol.POOL, protocol.ROUTER)
        }
        assert list(OPS) == by_tier[protocol.POOL]
        assert list(ROUTER_ADMIN_OPS + CACHE_OPS) == by_tier[protocol.ROUTER]
        assert list(ROUTER_OPS) == list(protocol.VERBS)

    def test_every_hop_covers_every_verb(self):
        from repro.service import (
            AsyncServiceClient,
            RemoteShardNode,
            ServiceClient,
            pool,
            server,
        )

        from repro.service.client import _VerbMethods

        # generated, and not shadowed by a hand-written namesake (the
        # node handle also inherits a connection's attributes)
        for name in protocol.VERBS:
            generated = getattr(_VerbMethods, name)
            for hop in (ServiceClient, AsyncServiceClient, RemoteShardNode):
                assert getattr(hop, name, None) is generated, (hop, name)
        # the server's handler column (it contributes `stats` itself)
        assert set(server.HANDLERS) | {"stats"} == set(protocol.VERBS)
        # what a worker executes and what a registry may hold are verbs
        assert set(pool._WORKER_OPS) <= set(OPS)
        assert {
            name
            for name, verb in protocol.VERBS.items()
            if verb.lost != protocol.FAIL
        } == set(pool._WORKER_OPS)

    def test_the_module_docstring_lists_exactly_the_table(self):
        listed = re.findall(
            r"^``(\w+)`` \*\((\w+), (\w+)\)\*", protocol.__doc__, re.MULTILINE
        )
        assert listed == [
            (verb.name, verb.tier, verb.placement)
            for verb in protocol.VERBS.values()
        ]

    def test_no_dispatcher_compares_an_op_against_a_verb_literal(self):
        """The chains must not grow back: outside the table's module, no
        comparison of an op against a verb name (39 at PR 17)."""
        # the scanner does see one when it is there
        assert verb_comparisons('if op == "stats":\n    pass') == [
            "line 1: op == 'stats'"
        ]
        assert verb_comparisons('x = request["op"] in ("evaluate", "count")')
        assert verb_comparisons('kind == "insert" or op == mode') == []
        for path in DISPATCHERS:
            assert verb_comparisons(path.read_text()) == [], path
        # and no dispatcher defines a second decoder: one _dispatch, in
        # the server, and one _call per client
        from repro.service import client, server

        assert inspect.getsource(server).count("def _dispatch(") == 1
        assert inspect.getsource(client).count("def _call(") == 2


@pytest.fixture(scope="module")
def wire():
    """Both tiers' whole conversation (see :mod:`wire_golden`), held
    once for the module: ``{tier: [(request, normalised response)]}``."""
    with wire_golden.Tiers() as tiers:
        yield {
            tier: list(
                zip(
                    wire_golden.frames(tier),
                    wire_golden.exchange(
                        tiers.addresses[tier], wire_golden.frames(tier)
                    ),
                )
            )
            for tier in (protocol.POOL, protocol.ROUTER)
        }


class TestWireFrames:
    @pytest.mark.parametrize("tier", [protocol.POOL, protocol.ROUTER])
    def test_the_malformed_matrix_is_answered_typed(self, wire, tier):
        """Every verb × every required field, missing and mistyped, on
        both servers: ``bad_request`` (``bad_query`` for unparsable query
        text) with the id echoed — never ``internal``, never a hang (the
        exchange has a socket timeout), and the connection kept serving:
        every later frame still got its answer."""
        valid = malformed = 0
        for request, response in wire[tier]:
            assert response["id"] == request["id"]
            op = request.get("op")
            verb = protocol.VERBS.get(op) if isinstance(op, str) else None
            admitted = verb is not None and (
                tier == protocol.ROUTER or verb.tier == protocol.POOL
            )
            if admitted and response["ok"]:
                valid += 1
                continue
            malformed += 1
            assert response["ok"] is False, (request, response)
            unparsable = admitted and any(
                request.get(name) == text
                for name, text in wire_golden.BAD_TEXT.items()
            )
            assert response["error"]["code"] == (
                "bad_query" if unparsable else "bad_request"
            ), (request, response)
        admitted_verbs = [
            v for v in protocol.VERBS.values()
            if tier == protocol.ROUTER or v.tier == protocol.POOL
        ]
        assert valid == len(admitted_verbs)  # one valid request per verb
        assert malformed >= 2 * sum(
            len([f for f in v.fields if f.required]) for v in admitted_verbs
        )
        assert wire[tier][-1][1]["ok"] or tier == protocol.POOL

    @pytest.mark.parametrize("tier", [protocol.POOL, protocol.ROUTER])
    def test_every_frame_is_answered_as_before_the_table(self, wire, tier):
        """Golden frames: the requests are regenerated from the table
        (so the file cannot drift from the schemas) and every response
        equals the one the PR-17 servers gave, modulo digests, pids and
        counters."""
        golden = json.loads(wire_golden.GOLDEN.read_text())[tier]
        assert [request for request, _ in golden] == [
            request for request, _ in wire[tier]
        ]
        for (request, before), (_, now) in zip(golden, wire[tier]):
            assert now == before, request
