"""The v9 on-disk reduction-cache layout: framed, safe, mmap-able.

A cache entry is a length-framed binary layout that contains **no
executable serialization** at all (the pickled envelopes of versions
≤ 4 have no reader anywhere in the package)::

    offset  size       field
    0       8          magic  b"REPROV09"
    8       32         SHA-256 of everything after this field
    40      8          meta length (uint64, little-endian)
    48      meta_len   UTF-8 JSON metadata
    -- a delta frame ends here; a full frame goes on --
    ...     pad        zero padding to a 64-byte boundary
    ...                blob section: raw little-endian array bytes,
                       each blob padded to a 16-byte boundary

A **full frame** stores the data of a
:class:`~repro.reduction.forward.ForwardReductionResult`, not its
structure.  Its JSON metadata::

    format_version   9
    query            the original query: its name and its
                     ``query_content_key``
    disjoint         the reduction flags, both booleans
    provenance
    trees            per interval variable: its sorted endpoint list —
                     all there is to a segment tree
    tuple_order      per atom label: the input tuples in provenance order
    codebook         the point values, in code order (interval parts are
                     node ids in the matrices and need no table)
    ranks            the G.1 rank table of a shifted artifact, or null
    disjunct_order   optional: the permutation of the disjuncts
                     ``rank_order`` gives on the artifact as written
                     (an entry without it ranks on its first EXISTS)
    relations        per variant relation, in the derived order: name,
                     blob indices of its matrix and refcounts
    blobs            per blob: dtype, shape, offset, nbytes

**Derived, not stored**: the EJ disjuncts and their position maps, each
atom's variant specs, and each variant's schema and column kinds are a
pure function of ``query`` and the two flags (a part column's bound is
its variable's ``trees`` entry's ``id_bound``) —
:func:`~repro.reduction.forward.disjunction`, which the reducer calls
too and which is memoized per process, so every load of one query shape
shares one set of disjunct objects and decodes none.  **Checked**: the
relations must be the derived variants by name and in order, each
matrix as wide as its derived schema, else the frame is invalid.

Attribute values use the tagged-JSON value codec of
:mod:`repro.engine.io` (the wire's and database files' too), so
intervals and nested tuples survive without pickle, ±inf included; a
value the codec refuses (NaN) skips the store, so every frame written
is one a load reads back.  The heavy half — each relation's ``uint32``
matrix and ``int64`` refcount array — lives in the blob section.  Loading opens
the file as one ``np.memmap`` and hands out array *views* into it: a
warm worker maps a cached reduction zero-copy and rebuilds nothing per
tree node or per part.  A load decodes eagerly what every read needs:
the query, each interval variable's endpoint list, the codebook and
the checked ``disjunct_order`` (a permutation of the derived disjuncts'
indices of plain ints, else the frame is invalid), so EXISTS runs its
disjuncts in the stored order without ranking them.  Provenance —
``tuple_order`` and ``ranks``, Python values proportional to the
*input* relations — is only shape-checked and kept as its payload
(:class:`~repro.reduction.forward.Undecoded`) until a patch, a witness
or a digest reads it; EXISTS and COUNT never do.  A payload that does
not decode then raises ``DomainChanged`` (reason ``unknown_tuple`` or
``rank_table``), which a session counts as a rebuild.

A **delta frame** is the change, not the artifact: what a patched
reduction is stored as, a few hundred bytes whatever ``|D~|`` is.  Its
reader (``ReductionCache.get``) loads ``parent`` and replays ``deltas``
through ``apply_delta``::

    format_version   9
    kind             "delta" (a full frame declares none)
    parent           the entry key of the artifact the deltas apply to
    depth            delta frames from here down to a full frame (>= 1)
    deltas           [[relation, "insert" | "delete", tuple], ...] in
                     application order, tuples in the value codec

Integrity: the digest is verified over the mapped bytes before any
field is trusted, so truncated, bit-flipped or version-skewed frames
(a v8 entry found in the directory included) degrade to cache misses,
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
import math
import struct
from typing import NamedTuple, Sequence

import numpy as np

from ..engine.io import CodecError, decode_value, encode_value
from ..engine.relation import Database, Delta, Relation
from ..intervals.segment_tree import SegmentTree
from ..reduction.columnar import (
    CODE_DTYPE,
    COUNT_DTYPE,
    CodeBook,
    ColumnBlock,
    ColumnarCounts,
)
from ..reduction.forward import (
    DomainChanged,
    ForwardReductionResult,
    Undecoded,
    disjunction,
    query_content_key,
)
from .disjunct_eval import evaluation_order


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

MAGIC = b"REPROV09"
_HEADER = struct.Struct("<8s32sQ")  # magic, sha256, meta length
_META_ALIGN = 64
_BLOB_ALIGN = 16

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
        "codes": blobs.add(block.codes),
        "counts": None if counts is None else blobs.add(counts.array),
    }


def serialize_result(result: ForwardReductionResult, version: int) -> bytes:
    """One reduction artifact as a frame (bytes, ready for an atomic
    write).  Raises :class:`CacheFormatError` for artifacts the layout
    cannot express — callers skip the store (the cache is best-effort).
    """
    blobs = _BlobWriter()
    try:
        # a loaded payload that does not decode raises DomainChanged
        tuple_order, ranks = result.tuple_order, result.ranks
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
            "query": [result.original.name, query_content_key(result.original)],
            "disjoint": bool(result.disjoint),
            "provenance": bool(result.provenance),
            "trees": {
                name: list(tree.endpoints)
                for name, tree in result.segment_trees.items()
            },
            # ``None`` (a row with no provenance) passes through the codec
            "tuple_order": {
                label: list(map(encode_value, order))
                for label, order in tuple_order.items()
            },
            "codebook": list(map(encode_value, result.codebook.values)),
            "ranks": None if ranks is None else list(map(encode_value, ranks)),
            "disjunct_order": list(evaluation_order(result)),
            "relations": relations,
            "blobs": blobs.descriptors,
        }
    except (CodecError, DomainChanged) as exc:
        raise CacheFormatError(str(exc)) from exc
    return _frame(meta, blobs.chunks)


def serialize_delta(
    parent: str, depth: int, deltas: Sequence[Delta], version: int
) -> bytes:
    """A delta frame: the entry is ``parent``'s artifact with ``deltas``
    (tuple-level, in application order) replayed on it."""
    try:
        entries = [[d.relation, d.kind, encode_value(d.tuple)] for d in deltas]
    except CodecError as exc:
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
    expected = dtype.itemsize * math.prod(shape)
    if nbytes != expected or offset + nbytes > len(buffer):
        raise CacheFormatError("blob descriptor out of bounds")
    view = np.frombuffer(buffer, dtype=np.uint8, count=nbytes, offset=offset)
    return view.view(dtype).reshape(shape)


def _decode_delta(meta: dict) -> DeltaFrame:
    """The delta frame ``meta`` describes, every field checked; raises
    what :func:`deserialize_result` absorbs."""
    parent, depth = meta["parent"], meta["depth"]
    deltas = tuple(
        Delta(0, kind, relation, decode_value(payload))
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


def _decode_order(orders: dict, arity: dict[str, int]) -> dict:
    """A frame's ``tuple_order``, each entry ``None`` or a tuple of its
    atom's ``arity`` — else ``DomainChanged`` (a ``CodecError`` is a
    ``ValueError``)."""
    try:
        decoded = {label: list(map(decode_value, rows)) for label, rows in orders.items()}
        if decoded.keys() == arity.keys() and all(
            t is None or (type(t) is tuple and len(t) == arity[label])
            for label, rows in decoded.items()
            for t in rows
        ):
            return decoded
    except (AttributeError, TypeError, ValueError):
        pass
    raise DomainChanged("unknown_tuple", "the provenance order does not decode")


def _decode_ranks(payload: list) -> tuple:
    """A frame's rank table: strictly increasing, else ``DomainChanged``."""
    try:
        ranks = tuple(map(decode_value, payload))
        if all(a < b for a, b in zip(ranks, ranks[1:])):
            return ranks
    except (TypeError, ValueError):
        pass
    raise DomainChanged("rank_table", "the rank table does not decode")


def deserialize_result(
    buffer, expected_version: int
) -> ForwardReductionResult | DeltaFrame | None:
    """Rebuild what one validated frame holds: a reduction artifact
    (full frame) or a :class:`DeltaFrame`, which its reader resolves
    against the parent entry.  An artifact's array fields are *views*
    into ``buffer`` — pass an ``np.memmap`` to get zero-copy cache
    loads, or bytes to materialize from a wire frame.  The disjuncts,
    variant specs and schemas are derived from the stored query and
    flags (:func:`~repro.reduction.forward.disjunction`, memoized).
    Returns ``None`` on any validation failure — an unknown frame
    ``kind``, or relations other than the derived variants, included —
    which callers treat as a cache miss."""
    parsed = _parse_frame(buffer, expected_version)
    if parsed is None:
        return None
    meta, blob_base = parsed
    try:
        kind = meta.get("kind")
        if kind is not None:  # full frames declare none
            if kind != "delta":
                raise CacheFormatError(f"unknown frame kind {kind!r}")
            return _decode_delta(meta)
        (name, atoms), flags = meta["query"], (meta["disjoint"], meta["provenance"])
        if type(name) is not str or {type(flag) for flag in flags} != {bool}:
            raise CacheFormatError("malformed query or flags")
        key = tuple((a, r, tuple(map(tuple, vs))) for a, r, vs in atoms)
        derived = disjunction(key, name, *flags)
        original = derived.query
        trees = {
            name: SegmentTree.from_endpoints(endpoints)
            for name, endpoints in meta["trees"].items()
        }
        orders = meta["tuple_order"]
        if type(orders) is not dict or any(type(r) is not list for r in orders.values()):
            raise CacheFormatError("malformed provenance order")
        arity = {atom.label: len(atom.variables) for atom in original.atoms}
        tuple_order = Undecoded(_decode_order, orders, arity)
        book = CodeBook(decode_value(v) for v in meta["codebook"])
        ranks = meta["ranks"]
        if ranks is not None:
            if type(ranks) is not list:
                raise CacheFormatError("malformed rank table")
            ranks = Undecoded(_decode_ranks, ranks)
        order = meta.get("disjunct_order")
        if order is not None and (
            type(order) is not list
            or any(type(i) is not int for i in order)  # no bools, no floats
            or sorted(order) != list(range(len(derived.encoded_queries)))
        ):
            raise CacheFormatError("disjunct_order is not a permutation")
        descriptors, entries = meta["blobs"], meta["relations"]
        if [entry["name"] for entry in entries] != [
            variant.name for variant in derived.variants
        ]:
            raise CacheFormatError("the relations are not the derived variants")
        database = Database()
        variant_counts: dict = {}
        for entry, variant in zip(entries, derived.variants):
            bounds = [None if x is None else trees[x].id_bound for x in variant.parts]
            codes = _blob_view(buffer, blob_base, descriptors, entry["codes"])
            if codes.dtype != CODE_DTYPE or codes.ndim != 2:
                raise CacheFormatError("code matrix has the wrong dtype")
            block = ColumnBlock(codes, variant.kinds, book, bounds)
            # a matrix of another width than the schema raises ValueError
            relation = Relation.from_columns(variant.name, variant.schema, block)
            if entry["counts"] is not None:
                counts = _blob_view(
                    buffer, blob_base, descriptors, entry["counts"]
                )
                if counts.dtype != COUNT_DTYPE or counts.shape != (
                    codes.shape[0],
                ):
                    raise CacheFormatError("refcount array mismatch")
                variant_counts[variant.name] = ColumnarCounts(block, counts)
            database.add(relation)
        return ForwardReductionResult(
            original,
            derived.encoded_queries,
            database,
            trees,
            tuple_order,
            derived.atom_variants,
            variant_counts,
            book,
            ranks=ranks,
            disjunct_order=None if order is None else tuple(order),
            disjoint=flags[0],
            provenance=flags[1],
        )
    except (KeyError, IndexError, TypeError, ValueError):
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
