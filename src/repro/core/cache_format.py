"""The v7 on-disk reduction-cache layout: framed, safe, mmap-able.

A cache entry is a length-framed binary layout that contains **no
executable serialization** at all (the pickled envelopes of versions
≤ 4 have no reader anywhere in the package)::

    offset  size       field
    0       8          magic  b"REPROV07"
    8       32         SHA-256 of everything after this field
    40      8          meta length (uint64, little-endian)
    48      meta_len   UTF-8 JSON metadata
    -- a delta frame ends here; a full frame goes on --
    ...     pad        zero padding to a 64-byte boundary
    ...                blob section: raw little-endian array bytes,
                       each blob padded to a 16-byte boundary

A **full frame**'s JSON metadata carries the structural half of a
:class:`~repro.reduction.forward.ForwardReductionResult`::

    format_version   7
    query            the original query
    encoded_queries  per disjunct: its EJ query and position map
    trees            per interval variable: its sorted endpoint list —
                     all there is to a segment tree
    tuple_order      per atom label: the input tuples in provenance order
    atom_variants    per atom label: its variant specs
    codebook         the point values, in code order (interval parts are
                     node ids in the matrices and need no table)
    relations        per relation: name, schema, per-column ``kinds``
                     (``bits`` | ``code`` | ``id``) and ``bounds``, blob
                     indices of its matrix and refcounts
    blobs            per blob: dtype, shape, offset, nbytes

Attribute values use the service wire codec
(:mod:`repro.service.protocol`), so intervals and nested tuples survive
without pickle.  The heavy half — each relation's ``uint32`` matrix and
``int64`` refcount array — lives in the blob section.  Loading opens
the file as one ``np.memmap`` and hands out array *views* into it: a
warm worker maps a cached reduction zero-copy, rebuilds nothing per
tree node or per part, and decodes Python tuples only if a consumer
actually demands them.

A **delta frame** is the change, not the artifact: what a patched
reduction is stored as, a few hundred bytes whatever ``|D~|`` is.  Its
reader (``ReductionCache.get``) loads ``parent`` and replays ``deltas``
through ``apply_delta``::

    format_version   7
    kind             "delta" (a full frame declares none)
    parent           the entry key of the artifact the deltas apply to
    depth            delta frames from here down to a full frame (>= 1)
    deltas           [[relation, "insert" | "delete", tuple], ...] in
                     application order, tuples in the wire codec

Integrity: the digest is verified over the mapped bytes before any
field is trusted, so truncated, bit-flipped or version-skewed frames
(a v6 entry found in the directory included) degrade to cache misses,
never to errors.  Everything here is pure data; a hostile cache entry
can at worst fail validation.  A delta frame's reader holds three more
invariants — the first here, the others where the link is followed:
every field has its type and range (``depth`` an ``int >= 1``,
``deltas`` non-empty ``[str, kind, tuple]`` through ``decode_value``);
``parent`` matches the entry-key pattern *before* it is joined to a
path; and the parent resolves to an artifact of depth exactly
``depth - 1`` under the chain cap — depths strictly decrease, so a
self-parent, a cycle or a lying depth is a miss after a bounded number
of opens.

Replay fails closed: an address commits to the contents of the
relations its query reads, so *any* valid artifact found under
``parent`` holds the same tuples, and replaying tuple-level deltas on
it yields a valid artifact of the child's address (provenance order
and endpoint domains, which a delete never shrinks, may differ from the
writer's) or raises ``DomainChanged`` — an insert with endpoints the
parent found on disk never had — which is a miss, never a wrong
artifact.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..engine.relation import Database, Delta, Relation
from ..intervals.segment_tree import SegmentTree
from ..queries.query import Atom, Query, Variable
from ..reduction.columnar import (
    CODE_DTYPE,
    COL_BITS,
    COL_CODE,
    COL_ID,
    COUNT_DTYPE,
    CodeBook,
    ColumnBlock,
    ColumnarCounts,
)
from ..reduction.forward import (
    EncodedQuery,
    ForwardReductionResult,
    _VariantSpec,
)


def _wire():
    """The service wire codec (tagged-JSON attribute values: Interval ↔
    ``{"interval": [l, r]}`` and so on).  Imported lazily because the
    module-scope import would close the package-initialization cycle
    ``core.reduction_cache → cache_format → service → service.pool →
    core.reduction_cache``."""
    from ..service import protocol

    return protocol

__all__ = [
    "MAGIC",
    "CacheFormatError",
    "DeltaFrame",
    "serialize_result",
    "serialize_delta",
    "deserialize_result",
    "load_result",
    "validate_entry_bytes",
]

MAGIC = b"REPROV07"
_HEADER = struct.Struct("<8s32sQ")  # magic, sha256, meta length
_META_ALIGN = 64
_BLOB_ALIGN = 16

#: Column kinds a frame may declare; anything else fails validation.
_KINDS = (COL_BITS, COL_CODE, COL_ID)
#: Delta kinds a delta frame may replay (the tuple-level ones).
_DELTA_KINDS = ("insert", "delete")


class CacheFormatError(ValueError):
    """A reduction artifact that cannot be expressed in (or recovered
    from) the frame layout — unknown value types, malformed frames,
    inconsistent blob descriptors.  Writers treat it as "skip the
    store"; readers as a cache miss."""


class DeltaFrame(NamedTuple):
    """A decoded delta frame (fields as in the module docstring)."""

    parent: str
    depth: int
    deltas: tuple[Delta, ...]


def _pad(n: int, align: int) -> int:
    return (-n) % align


def _frame(meta: dict, chunks: Sequence[bytes] | None) -> bytes:
    """``meta`` and a blob section (``None``: the frame ends with its
    metadata) behind the magic / SHA-256 / length header."""
    meta_bytes = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    # the digest covers everything after itself: meta length, meta, blobs
    body = bytearray()
    body += struct.pack("<Q", len(meta_bytes))
    body += meta_bytes
    if chunks is not None:
        body += b"\x00" * _pad(_HEADER.size + len(meta_bytes), _META_ALIGN)
        for chunk in chunks:
            body += chunk
    return MAGIC + hashlib.sha256(body).digest() + body


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------


def _encode_query(query: Query) -> dict:
    return {
        "name": query.name,
        "atoms": [
            [
                atom.label,
                atom.relation,
                [[v.name, v.is_interval] for v in atom.variables],
            ]
            for atom in query.atoms
        ],
    }


def _decode_query(payload: Any) -> Query:
    atoms = tuple(
        Atom(
            label,
            relation,
            tuple(Variable(name, bool(is_iv)) for name, is_iv in variables),
        )
        for label, relation, variables in payload["atoms"]
    )
    return Query(atoms, name=payload["name"])


class _BlobWriter:
    """Accumulates the blob section: appends arrays as little-endian
    contiguous bytes at 16-byte-aligned relative offsets and hands back
    their descriptor index."""

    def __init__(self) -> None:
        self.descriptors: list[dict] = []
        self.chunks: list[bytes] = []
        self.offset = 0

    def add(self, array: np.ndarray) -> int:
        data = np.ascontiguousarray(array)
        dtype = data.dtype.newbyteorder("<")
        data = data.astype(dtype, copy=False)
        raw = data.tobytes()
        pad = _pad(self.offset, _BLOB_ALIGN)
        if pad:
            self.chunks.append(b"\x00" * pad)
            self.offset += pad
        descriptor = {
            "dtype": dtype.str,
            "shape": list(data.shape),
            "offset": self.offset,
            "nbytes": len(raw),
        }
        self.chunks.append(raw)
        self.offset += len(raw)
        self.descriptors.append(descriptor)
        return len(self.descriptors) - 1


def _relation_entry(
    relation: Relation,
    counts: ColumnarCounts | None,
    book: CodeBook,
    blobs: _BlobWriter,
) -> dict:
    """One relation (plus its refcounts, if any) as a metadata entry,
    its arrays appended to the blob section."""
    block = relation.columnar
    if (
        block is None
        or block.book is not book
        or (counts is not None and counts.block is not block)
    ):
        raise CacheFormatError(
            f"{relation.name} is not a code matrix over the artifact's "
            f"codebook"
        )
    return {
        "name": relation.name,
        "schema": list(relation.schema),
        "kind": "columnar",
        "kinds": list(block.kinds),
        "bounds": list(block.bounds),
        "codes": blobs.add(block.codes),
        "counts": None if counts is None else blobs.add(counts.array),
    }


def serialize_result(result: ForwardReductionResult, version: int) -> bytes:
    """One reduction artifact as a frame (bytes, ready for an atomic
    write).  Raises :class:`CacheFormatError` for artifacts the layout
    cannot express — callers skip the store (the cache is best-effort).
    """
    wire = _wire()
    encode_value = wire.encode_value
    blobs = _BlobWriter()
    try:
        relations = [
            _relation_entry(
                relation,
                result.variant_counts.get(relation.name),
                result.codebook,
                blobs,
            )
            for relation in result.database
        ]
        meta = {
            "format_version": int(version),
            "query": _encode_query(result.original),
            "encoded_queries": [
                {
                    "query": _encode_query(eq.query),
                    "positions": eq.positions,
                }
                for eq in result.encoded_queries
            ],
            "trees": {
                name: list(tree.endpoints)
                for name, tree in result.segment_trees.items()
            },
            "tuple_order": {
                label: [
                    None if t is None else encode_value(t) for t in order
                ]
                for label, order in result.tuple_order.items()
            },
            "atom_variants": {
                label: [
                    [
                        spec.atom_label,
                        [list(p) for p in spec.parts],
                        list(spec.nonempty_last),
                        spec.provenance,
                    ]
                    for spec in specs
                ]
                for label, specs in result.atom_variants.items()
            },
            "codebook": [encode_value(v) for v in result.codebook.values],
            "relations": relations,
            "blobs": blobs.descriptors,
        }
    except wire.ProtocolError as exc:
        raise CacheFormatError(str(exc)) from exc
    return _frame(meta, blobs.chunks)


def serialize_delta(
    parent: str, depth: int, deltas: Sequence[Delta], version: int
) -> bytes:
    """A delta frame: the entry is ``parent``'s artifact with ``deltas``
    (tuple-level, in application order) replayed on it."""
    wire = _wire()
    try:
        entries = [
            [d.relation, d.kind, wire.encode_value(d.tuple)] for d in deltas
        ]
    except wire.ProtocolError as exc:
        raise CacheFormatError(str(exc)) from exc
    meta = {
        "format_version": int(version),
        "kind": "delta",
        "parent": parent,
        "depth": int(depth),
        "deltas": entries,
    }
    return _frame(meta, None)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------


def _parse_frame(buffer, expected_version: int) -> tuple[dict, int] | None:
    """Validate header, digest and metadata of one frame (``buffer`` is
    bytes or a uint8 memmap).  Returns ``(meta, blob_base)`` or ``None``
    on any mismatch."""
    n = len(buffer)
    if n < _HEADER.size:
        return None
    header = bytes(buffer[: _HEADER.size])
    magic, digest, meta_len = _HEADER.unpack(header)
    if magic != MAGIC:
        return None
    if hashlib.sha256(buffer[40:]).digest() != digest:
        return None
    if _HEADER.size + meta_len > n:
        return None
    try:
        meta = json.loads(bytes(buffer[_HEADER.size : _HEADER.size + meta_len]))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(meta, dict):
        return None
    if meta.get("format_version") != expected_version:
        return None
    blob_base = _HEADER.size + meta_len
    blob_base += _pad(blob_base, _META_ALIGN)
    return meta, blob_base


def validate_entry_bytes(raw: bytes, expected_version: int) -> bool:
    """True iff ``raw`` is a structurally valid frame of the
    expected version — the pickle-free receiver-side check for shipped
    cache entries (``cache_push``)."""
    try:
        return _parse_frame(raw, expected_version) is not None
    except Exception:  # pragma: no cover - defensive
        return False


def _blob_view(
    buffer, blob_base: int, descriptors: list, index: int
) -> np.ndarray:
    descriptor = descriptors[index]
    dtype = np.dtype(descriptor["dtype"])
    shape = tuple(int(s) for s in descriptor["shape"])
    offset = blob_base + int(descriptor["offset"])
    nbytes = int(descriptor["nbytes"])
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if nbytes != expected or offset + nbytes > len(buffer):
        raise CacheFormatError("blob descriptor out of bounds")
    view = np.frombuffer(buffer, dtype=np.uint8, count=nbytes, offset=offset)
    return view.view(dtype).reshape(shape)


def _decode_delta(meta: dict, wire) -> DeltaFrame:
    """The delta frame ``meta`` describes, every field checked; raises
    what :func:`deserialize_result` absorbs."""
    parent, depth = meta["parent"], meta["depth"]
    deltas = tuple(
        Delta(0, kind, relation, wire.decode_value(payload))
        for relation, kind, payload in meta["deltas"]
    )
    if (
        type(parent) is not str
        or type(depth) is not int  # not a bool, not a float
        or depth < 1
        or not deltas
        or any(
            type(d.relation) is not str
            or d.kind not in _DELTA_KINDS
            or not isinstance(d.tuple, tuple)
            for d in deltas
        )
    ):
        raise CacheFormatError("malformed delta frame")
    return DeltaFrame(parent, depth, deltas)


def deserialize_result(
    buffer, expected_version: int
) -> ForwardReductionResult | DeltaFrame | None:
    """Rebuild what one validated frame holds: a reduction artifact
    (full frame) or a :class:`DeltaFrame`, which its reader resolves
    against the parent entry.  An artifact's array fields are *views*
    into ``buffer`` — pass an ``np.memmap`` to get zero-copy cache
    loads, or bytes to materialize from a wire frame.  Returns ``None``
    on any validation failure — an unknown frame ``kind`` or a relation
    kind other than ``columnar`` included — which callers treat as a
    cache miss."""
    parsed = _parse_frame(buffer, expected_version)
    if parsed is None:
        return None
    meta, blob_base = parsed
    wire = _wire()
    decode_value = wire.decode_value
    try:
        kind = meta.get("kind")
        if kind is not None:  # full frames declare none
            if kind != "delta":
                raise CacheFormatError(f"unknown frame kind {kind!r}")
            return _decode_delta(meta, wire)
        original = _decode_query(meta["query"])
        encoded = [
            EncodedQuery(
                _decode_query(eq["query"]),
                {
                    x: {label: int(i) for label, i in positions.items()}
                    for x, positions in eq["positions"].items()
                },
            )
            for eq in meta["encoded_queries"]
        ]
        trees = {
            name: SegmentTree.from_endpoints(endpoints)
            for name, endpoints in meta["trees"].items()
        }
        tuple_order = {
            label: [None if t is None else decode_value(t) for t in order]
            for label, order in meta["tuple_order"].items()
        }
        atom_variants = {
            label: tuple(
                _VariantSpec(
                    atom_label,
                    tuple((str(x), int(i)) for x, i in parts),
                    tuple(str(x) for x in nonempty),
                    bool(provenance),
                )
                for atom_label, parts, nonempty, provenance in specs
            )
            for label, specs in meta["atom_variants"].items()
        }
        book = CodeBook(decode_value(v) for v in meta["codebook"])
        descriptors = meta["blobs"]
        database = Database()
        variant_counts: dict = {}
        for entry in meta["relations"]:
            name = entry["name"]
            schema = [str(a) for a in entry["schema"]]
            if entry["kind"] != "columnar":
                raise CacheFormatError(f"unknown relation kind {entry['kind']!r}")
            kinds = [str(k) for k in entry["kinds"]]
            if any(k not in _KINDS for k in kinds):
                raise CacheFormatError("unknown column kind")
            bounds = entry["bounds"]
            if len(bounds) != len(kinds) or any(
                b is not None and type(b) is not int for b in bounds
            ):
                raise CacheFormatError("malformed column bounds")
            codes = _blob_view(buffer, blob_base, descriptors, entry["codes"])
            if codes.dtype != CODE_DTYPE or codes.ndim != 2:
                raise CacheFormatError("code matrix has the wrong dtype")
            block = ColumnBlock(codes, kinds, book, bounds)
            relation = Relation.from_columns(name, schema, block)
            if entry["counts"] is not None:
                counts = _blob_view(
                    buffer, blob_base, descriptors, entry["counts"]
                )
                if counts.dtype != COUNT_DTYPE or counts.shape != (
                    codes.shape[0],
                ):
                    raise CacheFormatError("refcount array mismatch")
                variant_counts[name] = ColumnarCounts(block, counts)
            database.add(relation)
        return ForwardReductionResult(
            original,
            encoded,
            database,
            trees,
            tuple_order,
            atom_variants,
            variant_counts,
            book,
        )
    except (
        CacheFormatError,
        wire.ProtocolError,
        KeyError,
        IndexError,
        TypeError,
        ValueError,
    ):
        return None


def load_result(
    path, expected_version: int
) -> ForwardReductionResult | DeltaFrame | None:
    """Map one cache entry and rebuild its artifact zero-copy: the
    file becomes a read-only ``np.memmap`` and every code matrix and
    refcount array is a view into it (a delta entry comes back as its
    :class:`DeltaFrame`).  Any failure — missing file, torn write,
    digest mismatch, version skew — is ``None`` (a miss).
    """
    try:
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError):
        return None
    result = deserialize_result(mapped, expected_version)
    if result is None:
        del mapped  # drop the mapping eagerly on a miss
        return None
    return result
