"""Content-addressed database digests and the persistent reduction cache.

The forward reduction (Theorem 4.13) is a pure function of the query and
the database contents, so its result can be addressed by *content*: a
stable SHA-256 digest per relation plus a structural serialization of
the (canonical) query.  Digests are identical across interpreter runs
(no ``PYTHONHASHSEED`` salting), so a reduction serialized to a cache
directory by one worker is a valid artifact for every other worker and
for the same worker after a restart; and they are per relation, so a key
commits only to the relations its query reads — mutating an unrelated
relation leaves the entry reachable.  Digests exist for these keys only:
a session learns *that* a relation changed from its version
(:attr:`~repro.engine.relation.Relation.version`), never by re-hashing
it, and :func:`relation_digest` is memoized per version.

:class:`ReductionCache` is the on-disk store:
:class:`~repro.reduction.forward.ForwardReductionResult` artifacts in
the framed binary layout of :mod:`repro.core.cache_format` under
``<dir>/<key[:2]>/<key>.red``, written atomically (temp file + rename)
so concurrent workers sharing one directory never observe a torn entry.
Keys commit to the reduction pipeline flags and the digests of every
relation the query references, so a stale entry is unreachable by
construction — mutations change the digests, which change the key.

The store is **pickle-free**: entries are pure data (JSON metadata +
raw array bytes behind a SHA-256), loaded via ``np.memmap`` so warm
workers map cached code matrices zero-copy, and a hostile cache
directory can at worst produce misses.  Version-≤4 pickled ``.pkl``
envelopes left behind in an upgraded directory are never opened — they
are dead bytes that still count against ``max_bytes`` and are evicted
like any other entry.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from pathlib import Path
from typing import Mapping

from ..engine.relation import Database, Relation
from ..intervals.interval import Interval
from ..queries.query import Query
from ..reduction.forward import ForwardReductionResult
from .cache_format import (
    CacheFormatError,
    load_result,
    serialize_result,
    validate_entry_bytes,
)

#: Bumped whenever the serialized payload layout or the semantics of the
#: reduction change incompatibly; old entries are then simply misses.
#: Version 2: results carry delta-maintenance metadata (``atom_variants``,
#: ``variant_counts``, segment-tree endpoint domains).
#: Version 3: the result pickle is framed as opaque bytes next to its
#: SHA-256 integrity digest, verified on load.
#: Version 4: results carry their memoized interval encodings.
#: Version 5: pickle-free framed binary layout (``.red``, see
#: :mod:`repro.core.cache_format`): JSON structural metadata plus raw
#: little-endian array blobs behind one SHA-256, memmap-loadable.
#: Version 6: interval parts are segment-tree node ids stored verbatim
#: (``bits`` columns with a declared bound); the codebook holds point
#: values only and the frame no string table.
#: Versions 2-4 were pickled ``.pkl`` envelopes; no reader remains.
FORMAT_VERSION = 6


# ----------------------------------------------------------------------
# stable content digests
# ----------------------------------------------------------------------


def encode_value(value) -> str:
    """A stable, process-independent text encoding of one attribute
    value.  Type-tagged so ``1``, ``1.0``, ``"1"`` and ``[1, 1]`` never
    collide, and strings are **length-prefixed** so no string content
    (commas, tags, separators of this very format) can forge another
    encoding's boundaries.  Covers every value kind the engines produce
    (numbers, strings/bitstrings, :class:`Interval`, nested tuples)."""
    if isinstance(value, Interval):
        return f"i:{value.left!r}:{value.right!r}"
    if isinstance(value, bool):
        return f"b:{int(value)}"
    if isinstance(value, int):
        return f"n:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{len(value)}:{value}"
    if isinstance(value, tuple):
        return "t:(" + ",".join(encode_value(v) for v in value) + ")"
    if isinstance(value, frozenset):
        # unordered: sort the element encodings, not the elements (the
        # set may be type-heterogeneous), so the digest is iteration-
        # and hash-seed-independent
        return "F:{" + ",".join(sorted(encode_value(v) for v in value)) + "}"
    if value is None:
        return "z:"
    # last resort: requires a deterministic, content-based __repr__ —
    # the default object repr (memory address) would never match across
    # processes and defeats persistent-cache sharing for such values
    text = repr(value)
    return f"r:{type(value).__name__}:{len(text)}:{text}"


def relation_digest(relation: Relation) -> str:
    """SHA-256 digest of one relation's schema and tuple set, stable
    under tuple enumeration order and across processes.  Each encoded
    tuple is fed length-framed, so values containing the separator
    (e.g. strings with newlines) cannot make two different tuple sets
    collide.  Memoized on the relation per :attr:`Relation.version`, so
    digesting an unchanged relation again reads no tuple."""
    version = relation.version
    memo = relation._digest
    if memo is not None and memo[0] == version:
        return memo[1]
    h = hashlib.sha256()
    h.update(repr(relation.schema).encode())
    for line in sorted(encode_value(t) for t in relation.tuples):
        encoded = line.encode()
        h.update(b"%d:" % len(encoded))
        h.update(encoded)
    digest = h.hexdigest()
    relation._digest = (version, digest)
    return digest


def database_digests(db: Database) -> dict[str, str]:
    """Per-relation content digests — what persistent-cache keys
    commit to: a mutation changes exactly the digests of the relations
    it touched (and only those are re-hashed, see
    :func:`relation_digest`)."""
    return {r.name: relation_digest(r) for r in db}


def database_fingerprint(db: Database) -> tuple:
    """A content fingerprint of a whole database, stable under relation
    and tuple enumeration order *and across processes* (SHA-based, no
    ``hash()`` salting).  Equal fingerprints mean identical contents."""
    return tuple(sorted(database_digests(db).items()))


def result_digest(result: ForwardReductionResult) -> str:
    """A stable SHA-256 digest of everything observable about a forward
    reduction result: the encoded disjuncts and their position maps, the
    transformed database (schemas + derived rows), the provenance-id
    order (``tuple_order``, ``None`` sentinels included), the derived-
    row refcounts (``variant_counts``) and the patch metadata
    (``atom_variants``).

    Two results digest equal exactly when they are bit-identical as
    reduction artifacts — the oracle behind the differential tests that
    pin the memoized columnar reduction (and its delta-patched
    descendants) to the naive per-tuple loop of ``tests/oracles``.
    """
    h = hashlib.sha256()

    def feed(text: str) -> None:
        encoded = text.encode()
        h.update(b"%d:" % len(encoded))
        h.update(encoded)

    for eq in result.encoded_queries:
        feed(repr(eq.query))
        feed(repr(sorted((x, sorted(p.items())) for x, p in eq.positions.items())))
    for name in sorted(result.database.relation_names):
        feed(name)
        feed(relation_digest(result.database[name]))
    for label in sorted(result.tuple_order):
        feed(label)
        for t in result.tuple_order[label]:
            feed("z:" if t is None else encode_value(t))
    for name in sorted(result.variant_counts):
        feed(name)
        rows = result.variant_counts[name]
        for line in sorted(
            f"{encode_value(row)}={count}" for row, count in rows.items()
        ):
            feed(line)
    for label in sorted(result.atom_variants):
        feed(label)
        feed(repr(result.atom_variants[label]))
    return h.hexdigest()


def query_content_key(query: Query) -> tuple:
    """A deterministic structural serialization of a query: atom labels,
    relation names, and per-variable (name, kind) pairs.  Equal exactly
    for syntactically identical queries, and process-independent."""
    return tuple(
        (
            atom.label,
            atom.relation,
            tuple((v.name, v.is_interval) for v in atom.variables),
        )
        for atom in query.atoms
    )


def reduction_key(
    query: Query,
    digests: Mapping[str, str],
    disjoint: bool = False,
    provenance: bool = False,
    pipeline: str = "plain",
) -> str:
    """The content address of one forward reduction: the query's
    structural serialization, the digests of exactly the relations it
    references, the reduction flags and the pipeline tag (``plain`` vs
    the session's tag for the Appendix G counting pipeline, which
    reduces over the shifted database — itself a pure function of the
    original relations)."""
    referenced = sorted(query.relations)
    payload = repr(
        (
            FORMAT_VERSION,
            query_content_key(query),
            tuple((name, digests[name]) for name in referenced),
            bool(disjoint),
            bool(provenance),
            pipeline,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# the persistent store
# ----------------------------------------------------------------------


class ReductionCache:
    """A persistent, content-addressed store of forward reductions.

    Entries are immutable once written: the key commits to the query and
    to the contents of every relation it reads, so there is nothing to
    invalidate — mutated databases simply address different entries.
    Safe to share between concurrent workers (atomic writes; readers of
    a half-written temp file are impossible, readers of a corrupt or
    version-skewed entry get a miss).

    ``max_bytes`` caps the directory for long-lived deployments: after
    every store the cache is pruned back under the cap, evicting least-
    recently-*used* entries first (each hit touches the entry's mtime,
    so mtime order is LRU order).  :meth:`prune` is also callable
    directly for out-of-band garbage collection.

    Concurrency: many processes may share one directory — workers of a
    :class:`~repro.service.pool.WorkerPool`, restarted CLIs, a pruning
    janitor.  Every filesystem step therefore tolerates entries deleted
    out from under it (a concurrent prune) and verifies an integrity
    digest on load (the frame's SHA-256 over its own bytes), so a torn
    or tampered entry degrades to a plain miss rather than an error
    surfacing mid-query.

    **Namespaces** layer multi-tenancy over the shared store without
    touching the content addressing: a cache opened with
    ``namespace="acme"`` reads and writes the same content-addressed
    entries as every other namespace — two tenants with identical
    relations share one cached reduction by construction, since the key
    is a pure function of query structure and relation digests — but
    each hit/store drops a zero-byte *marker* under
    ``<dir>/_namespaces/acme/<key>``.  The markers are an ownership
    index, not a key prefix: they power per-tenant accounting
    (:meth:`namespace_keys`) and :meth:`purge_namespace`, which evicts
    exactly the entries no *other* namespace has ever referenced —
    detaching a tenant reclaims its private working set while shared
    artifacts stay warm for everyone else.
    """

    #: Namespace names are path components on disk; restrict them to a
    #: filesystem-safe alphabet so a tenant name can never escape the
    #: marker directory or forge another tenant's.
    NAMESPACE_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

    #: Entry keys are SHA-256 hex digests (see :func:`reduction_key`).
    #: Everything arriving over the wire (``cache_push``) is validated
    #: against this before being used as a path component, so a remote
    #: peer can never write outside the cache directory.
    ENTRY_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        namespace: str | None = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if namespace is not None and not self.NAMESPACE_PATTERN.match(
            namespace
        ):
            raise ValueError(
                f"invalid cache namespace {namespace!r} (want "
                f"{self.NAMESPACE_PATTERN.pattern})"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.namespace = namespace
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.pruned = 0
        #: stores skipped because the artifact cannot be expressed in
        #: the framed layout (exotic value types); the cache is
        #: best-effort, so these are accounting, not errors
        self.unserializable = 0
        # running size estimate so capped stores stay O(1): the O(N)
        # directory scan runs only when the estimate crosses the cap
        # (prune resyncs it to the exact total, absorbing any drift
        # from concurrent workers sharing the directory)
        self._tracked_bytes: int | None = None

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.red"

    def _entry_paths(self) -> "list[Path]":
        """Every entry file on disk: current ``.red`` frames plus stray
        ``.pkl`` envelopes of an upgraded directory, which nothing
        opens but which occupy the bytes ``max_bytes`` caps."""
        return [
            *self.directory.glob("*/*.red"),
            *self.directory.glob("*/*.pkl"),
        ]

    def _namespace_dir(self, namespace: str) -> Path:
        return self.directory / "_namespaces" / namespace

    def _mark(self, key: str) -> None:
        """Record that this cache's namespace references ``key`` (a
        zero-byte marker file; best-effort, like every other filesystem
        step here)."""
        if self.namespace is None:
            return
        marker = self._namespace_dir(self.namespace) / key
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
        except OSError:  # pragma: no cover - marker loss degrades purge
            pass

    def get(self, key: str) -> ForwardReductionResult | None:
        """The stored reduction for ``key``, or ``None``.  Any failure —
        missing file, truncated write from a crashed worker, a frame
        whose integrity digest does not match its bytes, a frame from
        an incompatible version — is a plain miss, never an error.

        Current entries are loaded through ``np.memmap``: the returned
        artifact's code matrices and refcount arrays are views into the
        mapped file, so a warm load costs the metadata parse plus one
        digest pass, never an array copy."""
        result = load_result(self._path(key), FORMAT_VERSION)
        if result is None:
            self.misses += 1
            return None
        try:
            os.utime(self._path(key))  # refresh the LRU clock for prune()
        except OSError:
            pass
        self._mark(key)
        self.hits += 1
        return result

    def put(self, key: str, result: ForwardReductionResult) -> None:
        """Store ``result`` under ``key`` atomically (write to a temp
        file in the same directory, then rename over the target).  The
        artifact is serialized to the framed layout — readers verify
        the frame's SHA-256 before trusting any field.  Artifacts the
        layout cannot express (exotic value types) skip the store and
        bump :attr:`unserializable`; losing a race against a concurrent
        prune of the same directory is silently absorbed — the cache is
        best-effort by contract."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            replaced = path.stat().st_size
        except OSError:  # includes FileNotFoundError: pruned or fresh
            replaced = 0
        try:
            frame = serialize_result(result, FORMAT_VERSION)
        except CacheFormatError:
            self.unserializable += 1
            return
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(frame)
            written = os.stat(tmp).st_size
            os.replace(tmp, path)
        except FileNotFoundError:
            # the temp file (or the shard directory itself) vanished —
            # a concurrent pruner or cleaner won the race; drop the store
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        self._mark(key)
        if self.max_bytes is not None:
            if self._tracked_bytes is None:
                self._tracked_bytes = self.size_bytes()
            else:
                self._tracked_bytes += written - replaced
            if self._tracked_bytes > self.max_bytes:
                self.prune(self.max_bytes)

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries (mtime order — hits touch
        the clock) until the directory's payload totals at most
        ``max_bytes``.  Returns the number of entries removed.  Entries
        that vanish concurrently (another worker pruned them) are
        skipped, never an error."""
        entries: list[tuple[float, int, Path]] = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        removed = 0
        entries.sort()  # oldest mtime first = least recently used
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self._tracked_bytes = total  # resync the running estimate
        self.pruned += removed
        return removed

    # ------------------------------------------------------------------
    # wire shipping (content-addressed warm-up of remote cache dirs)
    # ------------------------------------------------------------------

    def entry_keys(self) -> list[str]:
        """Every current-format entry key on disk, sorted — the donor
        side of the ``cache_keys`` verb.  Stray ``.pkl`` files are never
        offered for shipping."""
        return sorted(
            path.stem
            for path in self.directory.glob("*/*.red")
            if self.ENTRY_KEY_PATTERN.match(path.stem)
        )

    def export_entry(self, key: str) -> bytes | None:
        """The raw on-disk frame bytes for ``key`` (the unit
        ``cache_fetch`` ships), or ``None`` if the entry is missing or
        the key is malformed.  The bytes are the framed layout —
        carrying its own SHA-256 — so the receiver validates the frame
        as pure data before it ever touches the cache directory."""
        if not self.ENTRY_KEY_PATTERN.match(key):
            return None
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def import_entry(self, key: str, raw: bytes) -> bool:
        """Install one shipped entry under ``key`` (the ``cache_push``
        receiver).  The key must be a well-formed entry key (path-
        traversal defense) and ``raw`` must be a structurally valid
        current-version frame whose digest matches its bytes — checked
        **without unpickling anything** (the frame is pure data), so a
        hostile peer can at worst waste disk.  Anything else is
        rejected with ``False`` and never touches the directory.
        Returns ``True`` once the entry is present."""
        if not self.ENTRY_KEY_PATTERN.match(key):
            return False
        if not validate_entry_bytes(raw, FORMAT_VERSION):
            return False
        path = self._path(key)
        if path.exists():
            self._mark(key)
            return True  # content-addressed: an existing entry is equal
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - concurrent cleaner
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stores += 1
        self._mark(key)
        return True

    # ------------------------------------------------------------------
    # namespaces (multi-tenant accounting over the shared store)
    # ------------------------------------------------------------------

    def namespaces(self) -> list[str]:
        """Every namespace that has ever marked a key in this
        directory, sorted."""
        root = self.directory / "_namespaces"
        try:
            return sorted(p.name for p in root.iterdir() if p.is_dir())
        except OSError:
            return []

    def namespace_keys(self, namespace: str | None = None) -> set[str]:
        """The keys ``namespace`` (default: this cache's own) has marked.
        Markers outlive pruned entries — this is the *reference* set,
        not the on-disk set."""
        namespace = namespace if namespace is not None else self.namespace
        if namespace is None:
            return set()
        try:
            return {p.name for p in self._namespace_dir(namespace).iterdir()}
        except OSError:
            return set()

    def purge_namespace(self, namespace: str | None = None) -> int:
        """Detach ``namespace``: drop its marker set and evict every
        entry **no other namespace references** — a tenant's private
        working set.  Entries shared with any other namespace survive
        (content addressing made them communal property).  Returns the
        number of entries removed.  Best-effort under concurrency, like
        :meth:`prune`."""
        namespace = namespace if namespace is not None else self.namespace
        if namespace is None:
            raise ValueError("no namespace to purge")
        mine = self.namespace_keys(namespace)
        others: set[str] = set()
        for other in self.namespaces():
            if other != namespace:
                others |= self.namespace_keys(other)
        removed = 0
        for key in mine:
            marker = self._namespace_dir(namespace) / key
            try:
                marker.unlink()
            except OSError:
                pass
            if key in others:
                continue
            unlinked = False
            entry = self._path(key)
            for path in (entry, entry.with_suffix(".pkl")):
                try:
                    path.unlink()
                    unlinked = True
                except OSError:
                    continue
            if unlinked:
                removed += 1
        try:
            self._namespace_dir(namespace).rmdir()
        except OSError:  # pragma: no cover - left non-empty concurrently
            pass
        self.pruned += removed
        self._tracked_bytes = None  # force a resync at the next cap check
        return removed

    def size_bytes(self) -> int:
        """Total entry bytes currently on disk (stray ``.pkl`` files
        included)."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        """Number of entry files currently on disk (stray ``.pkl``
        files included)."""
        return len(self._entry_paths())

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "pruned": self.pruned,
            "unserializable": self.unserializable,
        }
