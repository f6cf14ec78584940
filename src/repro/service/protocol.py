"""The service wire protocol: line-delimited JSON, and the one table
that says what a verb is.

One request per line, one response per line, matched by a client-chosen
``id``.  Requests are objects::

    {"id": 7, "op": "evaluate", "query": "R([A],[B]) ∧ S([B],[C])"}
    {"id": 8, "op": "evaluate_many", "queries": ["...", "..."]}
    {"id": 9, "op": "count", "query": "...", "deadline_ms": 250}
    {"id": 10, "op": "mutate", "kind": "insert", "relation": "R",
     "tuple": [{"interval": [1.5, 4.0]}, {"interval": [2.0, 2.5]}]}
    {"id": 11, "op": "stats"}

Every verb has exactly one entry in :data:`VERBS`, and every hop reads
it instead of restating it: the servers decode and dispatch by it, the
clients and the coordinator's node handle generate their methods from
it (``client.<verb>(*fields in order)``), the load generator builds
frames with it, and the registries that hold outstanding work settle a
lost entry by its ``lost`` column.  The verbs, as *(tier, placement)*,
fields → result:

``evaluate`` *(pool, routed)* — ``query`` → ``bool``, the Boolean answer.
``count`` *(pool, routed)* — ``query`` → ``int``, the exact witness count.
``evaluate_many`` *(pool, routed)* — ``queries`` → ``[bool]`` in order.
``sql`` *(pool, routed)* — ``sql`` → ``bool`` (``EXISTS``) | ``int`` (``COUNT(*)``).
``explain`` *(pool, local)* — ``sql`` → the optimizer's per-disjunct plan.
``mutate`` *(pool, broadcast)* — ``kind``, ``relation``, ``tuple`` → the ack.
``stats`` *(pool, broadcast)* — live per-worker and aggregate counters.
``attach_tenant`` *(router, admin)* — ``tenant``, ``database`` (a snapshot).
``detach_tenant`` *(router, admin)* — ``tenant``, ``purge`` = ``true``.
``reload`` *(router, admin)* — ``tenant``, ``database``: a hot swap.
``ring`` *(router, local)* — topology, tenants, (coordinator) addresses.
``ring_add`` *(router, admin)* — ``shard``, ``address`` of a remote one.
``ring_remove`` *(router, admin)* — ``shard``.
``cache_keys`` *(router, admin)* — this node's reduction-cache entry keys.
``cache_fetch`` *(router, admin)* — ``key`` → the entry, content-addressed.
``cache_push`` *(router, admin)* — ``key``, ``sha256``, ``data``: verified, stored.

``routed`` work goes to the shard and worker that own the canonical
form of the query (one task per canonical group of a batch, per lowered
disjunct of a SQL program), ``broadcast`` work to every replica,
``local`` work is answered by the serving process itself and ``admin``
work runs on the router's serial admin executor.  The pool tier (one
:class:`~repro.service.pool.WorkerPool` behind a
:class:`~repro.service.server.ServiceServer`) admits the ``pool``
verbs; the router tier admits all of them and reads a ``tenant`` field
on the query and mutation verbs.  Malformed query text raises the typed
``BadQuery`` client-side.

Responses are ``{"id": ..., "ok": true, "result": ...}`` on success and
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` on
failure.  Error codes are *typed* so clients can react mechanically:

``overloaded``
    admission control refused the request — the in-flight window is
    full.  Back off and retry; ``error.inflight`` carries the window
    state.
``deadline_exceeded``
    the per-request deadline elapsed before a worker answered.  The
    underlying computation may still complete and warm the caches; only
    the response is abandoned.
``bad_request``
    unparsable JSON, unknown op, or malformed fields.  Never retry.
``bad_query``
    a ``query``/``queries``/``sql`` field that is syntactically or
    semantically malformed (text that does not parse, or SQL that fails
    to compile).  Never retry — the request itself is wrong, not the
    server; ``error.message`` carries the parser diagnostic.
``shutting_down``
    the server is draining; reconnect elsewhere.
``shard_unreachable``
    a remote shard node could not be reached (dial failure, connection
    loss mid-request, failed health check) and no surviving shard could
    take the work.  Retryable: the coordinator evicts dead shards from
    the ring, so a later attempt routes to a survivor.
``internal``
    the worker raised; ``error.message`` carries the repr.

Tuple values cross the wire in the tagged-JSON codec of
:mod:`repro.engine.io`, the one the reduction cache and database files
use: an :class:`~repro.intervals.Interval` becomes ``{"interval":
[left, right]}``, a nested tuple ``{"tuple": [...]}``, and plain JSON
scalars pass through unchanged.  The codec refuses NaN and keeps ±inf;
the wire adds its own rule where a request's values are decoded
(``decode_value`` / ``decode_tuple`` / ``decode_database`` here),
because a decoded value is applied to every replica: every number must
be finite.  A value the codec refuses or the wire does not admit is a
:class:`ProtocolError`, hence a ``bad_request`` with nothing applied.
``deadline_ms`` is a finite ``int`` or ``float`` (negative values clamp
to 0, ``null`` means no deadline).
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from ..engine import io as codec
from ..engine.io import (
    CodecError,
    encode_database,
    encode_tuple,
    encode_value as encode_value,
    is_finite_number,
)
from ..engine.relation import Database
from ..hypergraph.isomorphism import SHAPE_MEMO_SIZE
from ..intervals.interval import Interval
from ..queries.parser import parse_query, query_text
from ..queries.query import Query

ERROR_OVERLOADED = "overloaded"
ERROR_DEADLINE = "deadline_exceeded"
ERROR_BAD_REQUEST = "bad_request"
ERROR_BAD_QUERY = "bad_query"
ERROR_SHUTTING_DOWN = "shutting_down"
ERROR_SHARD_UNREACHABLE = "shard_unreachable"
ERROR_INTERNAL = "internal"

#: Mutation kinds the service accepts — exactly the tuple-level logged
#: mutations that delta maintenance can patch (whole-relation changes
#: stay an administrative, out-of-band operation).
MUTATION_KINDS = ("insert", "delete")


#: A malformed request or value encoding: the codec's own error, so a
#: value that does not decode is a ``bad_request`` like any other field.
ProtocolError = CodecError


class BadQueryError(ProtocolError):
    """A request whose *query text* — conjunction syntax or SQL — does
    not parse or compile.  Servers map this to the typed ``bad_query``
    error code so clients can distinguish "your query is wrong" from
    "your request framing is wrong"."""


# ----------------------------------------------------------------------
# values: the codec's, under the wire's own admission rule
# ----------------------------------------------------------------------


def _admit(value: Any) -> Any:
    """``value`` if every number in it is finite, else a
    :class:`ProtocolError`: what a request decodes to is applied to
    every replica, and the wire admits finite data only."""
    if isinstance(value, tuple):
        for member in value:
            _admit(member)
    elif isinstance(value, Interval):
        _admit(value.left)
        _admit(value.right)
    elif isinstance(value, float) and not is_finite_number(value):
        raise ProtocolError(f"a number on the wire must be finite, got {value!r}")
    return value


def decode_value(value: Any) -> Any:
    """:func:`repro.engine.io.decode_value`, finite numbers only."""
    return _admit(codec.decode_value(value))


def decode_tuple(values: Any) -> tuple:
    """:func:`repro.engine.io.decode_tuple`, finite numbers only."""
    return _admit(codec.decode_tuple(values))


def decode_database(payload: Any) -> Database:
    """:func:`repro.engine.io.decode_database`, finite numbers only."""
    db = codec.decode_database(payload)
    for relation in db:
        _admit(tuple(relation.tuples))
    return db


def encode_cache_entry(key: str, raw: bytes) -> dict:
    """One on-disk reduction-cache entry as a wire object: the entry
    key, the raw envelope bytes (base64) and their SHA-256, so the
    receiving node can verify integrity before touching its disk."""
    if not isinstance(raw, bytes):
        raise ProtocolError(f"cache entry payload must be bytes, got {raw!r}")
    return {
        "key": key,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def decode_cache_entry(payload: Any) -> tuple[str, bytes]:
    """Inverse of :func:`encode_cache_entry`: ``(key, raw bytes)``,
    raising :class:`ProtocolError` on a malformed object or an
    integrity-digest mismatch (a corrupted or tampered entry must never
    reach the receiving cache directory)."""
    if not isinstance(payload, dict) or not {
        "key",
        "sha256",
        "data",
    } <= set(payload):
        raise ProtocolError(f"malformed cache entry payload {payload!r}")
    key = payload["key"]
    if not isinstance(key, str):
        raise ProtocolError("cache entry key must be a string")
    if not isinstance(payload["data"], str) or not isinstance(
        payload["sha256"], str
    ):
        raise ProtocolError("cache entry data/sha256 must be strings")
    try:
        raw = base64.b64decode(payload["data"].encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as error:
        raise ProtocolError(f"cache entry data is not base64: {error}") from error
    if hashlib.sha256(raw).hexdigest() != payload["sha256"]:
        raise ProtocolError(
            f"cache entry {key!r} failed its integrity check "
            f"(digest mismatch)"
        )
    return key, raw


# ----------------------------------------------------------------------
# the verb table
# ----------------------------------------------------------------------

#: Tiers: which servers admit a verb.
POOL, ROUTER = "pool", "router"
#: Placement: where a verb's work runs (see the module docstring).
ROUTED, BROADCAST, LOCAL, ADMIN = "routed", "broadcast", "local", "admin"
#: What a lost ack means — the entry sat in a registry whose worker or
#: connection died: place the task again on the *same* future, resolve
#: it benignly (a broadcast's gather drops the ``None``; the mutation
#: is already in the master copy, the statistics died with the replica)
#: or fail the future typed.
RESUBMIT, DROP, FAIL = "resubmit", "drop", "fail"

_REQUIRED: Any = object()


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Field:
    """One request field: its wire name, the JSON type it must have,
    and the pair of functions between that wire value and the argument
    a handler receives.  A field with a ``default`` is optional."""

    name: str
    kind: type
    parse: Callable[[Any], Any] = _same
    dump: Callable[[Any], Any] = _same
    default: Any = _REQUIRED

    def read(self, request: dict) -> Any:
        value = request.get(self.name, self.default)
        if value is _REQUIRED:
            value = None  # absent reads as the JSON null it amounts to
        elif value is self.default:
            return value
        if not isinstance(value, self.kind):
            raise ProtocolError(
                f"field {self.name!r} must be a {self.kind.__name__}, "
                f"got {value!r}"
            )
        return self.parse(value)

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


@dataclass(frozen=True)
class Verb:
    """One wire verb — everything any hop needs to know about it."""

    name: str
    tier: str
    fields: tuple[Field, ...]
    placement: str
    lost: str = FAIL
    #: what a client makes of ``result``
    cast: Callable[[Any], Any] = _same
    #: whether the router tier addresses the verb to one tenant (it
    #: reads a ``tenant`` field and binds it before dispatching)
    tenant: bool = False

    def decode(self, request: dict) -> tuple:
        """The handler's arguments out of one request, raising
        :class:`ProtocolError` / :class:`BadQueryError`."""
        return tuple(field.read(request) for field in self.fields)

    def encode(self, *args: Any, **named: Any) -> dict:
        """The request fields for ``args`` (positional, in field order)
        and ``named`` (by wire name); an optional field left at
        ``None`` stays off the wire."""
        values = {field.name: field.default for field in self.fields}
        values.update(zip(values, args), **named)
        missing = [name for name, value in values.items() if value is _REQUIRED]
        if missing or len(values) > len(self.fields) or len(args) > len(self.fields):
            raise TypeError(
                f"{self.name} takes {[f.name for f in self.fields]}, "
                f"got {args!r} {named!r}"
            )
        return {
            field.name: field.dump(values[field.name])
            for field in self.fields
            if field.required or values[field.name] is not None
        }

    def frame(self, *args: Any, **extra: Any) -> dict:
        """A whole request minus its ``id`` (the transport adds it)."""
        return {"op": self.name, **self.encode(*args), **extra}


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _parse_text(text: str) -> Query:
    # memoized by text (a Query is frozen, so every request sending the
    # text shares one); parse failures are not memoized and are typed
    # ``bad_query``, not ``bad_request``: the request framing was fine,
    # the query was not
    try:
        return parse_query(text)
    except (ValueError, KeyError, TypeError) as error:
        raise BadQueryError(str(error)) from error


def _dump_text(query: Query | str) -> str:
    return query if isinstance(query, str) else query_text(query)


def _parse_texts(texts: list) -> list[Query]:
    if not all(isinstance(text, str) for text in texts):
        raise ProtocolError("queries must be a list of strings")
    return [_parse_text(text) for text in texts]


def _parse_kind(kind: str) -> str:
    if kind not in MUTATION_KINDS:
        raise ProtocolError(f"mutation kind must be one of {MUTATION_KINDS}")
    return kind


def _parse_purge(purge: Any) -> bool:
    if not isinstance(purge, bool):
        raise ProtocolError(f"purge must be a boolean, got {purge!r}")
    return purge


def _parse_address(address: Any) -> tuple[str, int]:
    if (
        not isinstance(address, list)
        or len(address) != 2
        or not isinstance(address[0], str)
        or not isinstance(address[1], int)
        or isinstance(address[1], bool)
    ):
        raise ProtocolError(f"address must be [host, port], got {address!r}")
    return (address[0], address[1])


def _dump_database(db: Any) -> dict:
    # a coordinator encodes a snapshot once and ships it to every node
    return db if isinstance(db, dict) else encode_database(db)


def _cast_sql(result: Any) -> bool | int:
    return result if isinstance(result, bool) else int(result)


class _CachePush(Verb):
    """``cache_push`` carries the encoded entry as the request itself
    (``key``/``sha256``/``data`` beside ``id``/``op``), so its codec is
    the entry codec: decoding verifies the integrity digest."""

    def decode(self, request: dict) -> tuple:
        return decode_cache_entry(request)

    def encode(self, key: str, raw: bytes) -> dict:  # type: ignore[override]
        return encode_cache_entry(key, raw)


_QUERY = Field("query", str, _parse_text, _dump_text)
_QUERIES = Field("queries", list, _parse_texts, lambda qs: [_dump_text(q) for q in qs])
_SQL = Field("sql", str)
_MUTATION = (
    Field("kind", str, _parse_kind),
    Field("relation", str),
    Field("tuple", list, decode_tuple, encode_tuple),
)
#: The field the router tier reads to address a verb to one tenant.
TENANT = Field("tenant", str)
_DATABASE = Field("database", dict, decode_database, _dump_database)
_PURGE = Field("purge", object, _parse_purge, default=True)
_SHARD = Field("shard", str)
_ADDRESS = Field("address", object, _parse_address, list, default=None)
_ENTRY = (Field("key", str), Field("sha256", str), Field("data", str))

# one row per verb: name, tier, fields, placement, lost ack, client cast
_POOL_VERBS = (
    Verb("evaluate", POOL, (_QUERY,), ROUTED, RESUBMIT, bool, tenant=True),
    Verb("count", POOL, (_QUERY,), ROUTED, RESUBMIT, int, tenant=True),
    Verb("evaluate_many", POOL, (_QUERIES,), ROUTED, FAIL, list, tenant=True),
    Verb("sql", POOL, (_SQL,), ROUTED, RESUBMIT, _cast_sql, tenant=True),
    Verb("explain", POOL, (_SQL,), LOCAL, tenant=True),
    Verb("mutate", POOL, _MUTATION, BROADCAST, DROP, tenant=True),
    Verb("stats", POOL, (), BROADCAST, DROP),
)
_ADMIN_VERBS = (
    Verb("attach_tenant", ROUTER, (TENANT, _DATABASE), ADMIN),
    Verb("detach_tenant", ROUTER, (TENANT, _PURGE), ADMIN),
    Verb("reload", ROUTER, (TENANT, _DATABASE), ADMIN),
    Verb("ring", ROUTER, (), LOCAL),
    Verb("ring_add", ROUTER, (_SHARD, _ADDRESS), ADMIN),
    Verb("ring_remove", ROUTER, (_SHARD,), ADMIN),
)
_CACHE_VERBS = (
    Verb("cache_keys", ROUTER, (), ADMIN, cast=list),
    Verb("cache_fetch", ROUTER, (_ENTRY[0],), ADMIN, cast=decode_cache_entry),
    _CachePush("cache_push", ROUTER, _ENTRY, ADMIN),
)

#: The table: wire name → :class:`Verb`.
VERBS: dict[str, Verb] = {
    verb.name: verb for verb in _POOL_VERBS + _ADMIN_VERBS + _CACHE_VERBS
}

#: Ops the single-pool server understands; anything else is a
#: ``bad_request``.
OPS = tuple(verb.name for verb in _POOL_VERBS)
#: Additional ops the sharded router tier understands: tenancy
#: (``attach_tenant`` ships a full database snapshot, ``reload``
#: hot-swaps one under live traffic) and the consistent-hash ring.
ROUTER_ADMIN_OPS = tuple(verb.name for verb in _ADMIN_VERBS)
#: Cache-shipping verbs for remote shard nodes: a coordinator warms a
#: joining node's per-node cache directory by listing a healthy donor's
#: entries, fetching them content-addressed and pushing them to the
#: newcomer.
CACHE_OPS = tuple(verb.name for verb in _CACHE_VERBS)
ROUTER_OPS = OPS + ROUTER_ADMIN_OPS + CACHE_OPS


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def dump_line(message: dict) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def parse_line(line: bytes | str) -> dict:
    """Parse one line into a message dict, raising
    :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok_response(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, code: str, message: str, **extra: Any
) -> dict:
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}
