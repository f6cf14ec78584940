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
import logging
import os
import re
import tempfile
import time
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..engine.relation import Database, Delta, Relation
from ..intervals.interval import Interval
from ..queries.query import Query
from ..reduction.forward import DomainChanged, ForwardReductionResult, query_content_key
from .cache_format import (
    CacheFormatError,
    DeltaFrame,
    load_result,
    serialize_delta,
    serialize_result,
    validate_entry_bytes,
)

_log = logging.getLogger("repro.cache")

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
#: Version 7: a second frame kind — a patched artifact is stored as
#: the tuple-level deltas that turn its parent entry into it.
#: Version 8: a full frame carries the G.1 rank table of a shifted
#: artifact, so its delta frames stay in source space.
#: Version 9: a full frame stores the reduction flags instead of the
#: disjuncts, variant specs, schemas, kinds and bounds, which a load
#: derives.
#: Versions 2-4 were pickled ``.pkl`` envelopes; no reader remains.
FORMAT_VERSION = 9

#: The most delta frames between an entry and a full frame.  A link
#: replays in a fraction of a full load, so the longest chain loads in
#: 2-3x one; the patch after that stores whole — the compaction.
MAX_DELTA_CHAIN = 8

#: A ``*.tmp`` file this old has no live writer (one lives milliseconds).
_STALE_TEMP_S = 60.0


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


#: a tuple's encoding, in a memo entry ``(tuple, line)``
_LINE = itemgetter(1)


def relation_digest(relation: Relation) -> str:
    """SHA-256 digest of one relation's schema and tuple set, stable
    under tuple enumeration order and across processes.  Each encoded
    tuple is fed length-framed, so values containing the separator
    (e.g. strings with newlines) cannot make two different tuple sets
    collide.  Memoized on the relation per :attr:`Relation.version`, so
    digesting an unchanged relation again reads no tuple; a changed one
    re-encodes only the tuple objects it did not hold at its last
    digest.  The encodings are remembered per tuple *object* (an equal
    but distinct object — ``(1.0,)`` swapped in for ``(1,)`` — is
    encoded afresh) and only while the tuple is live."""
    version = relation.version
    memo = relation._digest
    if memo is not None and memo[0] == version:
        return memo[1]
    known = relation._encoded or {}
    encoded = {}
    for t in relation.tuples:
        entry = known.get(id(t))
        if entry is None:
            entry = (t, encode_value(t).encode())
        encoded[id(t)] = entry
    h = hashlib.sha256()
    h.update(repr(relation.schema).encode())
    lines = sorted(map(_LINE, encoded.values()))
    h.update(b"".join([b"%d:%s" % (len(line), line) for line in lines]))
    digest = h.hexdigest()
    relation._digest, relation._encoded = (version, digest), encoded
    return digest


def database_digests(
    db: Database, names: Iterable[str] | None = None
) -> dict[str, str]:
    """Per-relation content digests — what persistent-cache keys
    commit to: a mutation changes exactly the digests of the relations
    it touched, and a delta of ``k`` tuples re-encodes ``k`` tuples
    (see :func:`relation_digest`).  ``names`` restricts the pass to the
    relations a key commits to: no other mutated relation is re-hashed."""
    if names is None:
        return {r.name: relation_digest(r) for r in db}
    return {name: relation_digest(db[name]) for name in names}


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
    row refcounts (``variant_counts``), the patch metadata
    (``atom_variants``) and the G.1 rank table (``ranks``).

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
    feed(encode_value(result.ranks))
    return h.hexdigest()


def reduction_key(
    query: Query,
    digests: Mapping[str, str],
    disjoint: bool = False,
    provenance: bool = False,
    pipeline: str = "plain",
) -> str:
    """The content address of one forward reduction: the query's
    structural serialization, the digests of exactly the relations it
    references, the reduction flags and the pipeline tag (``plain``, or
    the session's tag for its one artifact per query, which reduces over
    the G.1-shifted database — itself a pure function of the relations)."""
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


class _Miss(Exception):
    """``(reason, detail)``: why an entry did not resolve.  ``reason``
    names its ``miss_*`` counter — or is ``depth``, which the child
    frame that stated the depth turns into its own ``invalid``."""


def _write_atomic(path: Path, data: bytes) -> None:
    """``data`` at ``path`` via a temp file beside it and a rename, so
    no reader ever sees a torn entry.  The directory is made only when
    the temp file finds it missing (a fresh shard, or a cleaner removed
    it), and the temp file is then retried once."""
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ReductionCache:
    """A persistent, content-addressed store of forward reductions.

    Entries are immutable once written: the key commits to the query and
    to the contents of every relation it reads, so there is nothing to
    invalidate — mutated databases simply address different entries,
    and the patch path (``put(..., deltas=)``) never replaces one: an
    entry already at the address is an equal artifact.
    Safe to share between concurrent workers (atomic writes; readers of
    a half-written temp file are impossible, readers of a corrupt or
    version-skewed entry get a miss).

    A patched reduction is stored as a *delta frame*
    (:mod:`repro.core.cache_format`): the deltas, chained to the entry
    the artifact was last stored or loaded under, so the write costs
    O(change).  Delta frames are ordinary ``.red`` files named by their
    address, which is all the rest of this class needs to know:

    * **prune** — a hit touches every link it resolved, so a hot child
      keeps its chain young; a pruned parent leaves the child a
      ``miss_orphan``, which the rebuild's full store replaces.
    * **namespaces** — every link a :meth:`get` resolves is marked, so
      :meth:`purge_namespace` removes a tenant's private chain whole
      and keeps a parent another tenant has read.
    * **shipping** — :meth:`entry_keys` / :meth:`export_entry` /
      :meth:`import_entry` move delta frames like any frame; a child
      that arrives before its parent is a miss until the chain is whole.

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
        self._misses = {"absent": 0, "invalid": 0, "orphan": 0, "replay": 0}
        self.stores = 0        # files written
        self.delta_stores = 0  # ... of which delta frames
        self.skipped_stores = 0  # patches whose address held an entry
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

    def _temp_paths(self) -> "list[Path]":
        """Writers' temp files: milliseconds old, unless one was killed."""
        return list(self.directory.glob("*/*.tmp"))

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
            try:
                marker.touch()
            except FileNotFoundError:  # the namespace directory is new
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.touch()
        except OSError:  # pragma: no cover - marker loss degrades purge
            pass

    def get(self, key: str) -> ForwardReductionResult | None:
        """The stored reduction for ``key``, or ``None``.  Any failure
        is a counted miss, never an error: no file (``miss_absent``); a
        truncated, tampered, version-skewed or malformed frame
        (``miss_invalid``, logged); a delta frame whose parent is gone
        (``miss_orphan``) or whose deltas do not replay on the parent
        found (``miss_replay``).  The file that could not be used is
        unlinked, so the rebuild's store heals the address.

        A full frame is loaded through ``np.memmap``: the artifact's
        arrays are views into the mapped file, so a warm load costs the
        metadata parse plus one digest pass, never an array copy.  A
        delta frame loads its parent and replays its deltas through
        ``apply_delta``, copy-on-write over the mapping."""
        try:
            result, depth = self._load(key, None)
        except _Miss as miss:
            reason, detail = miss.args
            self._misses[reason] += 1
            if reason == "invalid":
                _log.warning("cache entry %s removed: %s", key, detail)
            return None
        result.stored_as = (key, depth)
        self.hits += 1
        return result

    def _load(
        self, key: str, depth: int | None
    ) -> tuple[ForwardReductionResult, int]:
        """The artifact of entry ``key`` and its chain depth, which must
        be ``depth`` when a child frame states one: depths strictly
        decrease, so no chain takes over ``MAX_DELTA_CHAIN + 1`` opens.
        Every link resolved is touched and marked."""
        path = self._path(key)
        loaded = load_result(path, FORMAT_VERSION)
        if loaded is None and not path.exists():
            raise _Miss("absent", "no such entry")
        found = loaded.depth if isinstance(loaded, DeltaFrame) else 0
        if loaded is not None and depth is not None and found != depth:
            # the child's claim is what failed; this entry may be fine
            raise _Miss("depth", f"parent {key} has depth {found}")
        try:
            if loaded is None:
                raise _Miss("invalid", f"not a version-{FORMAT_VERSION} frame")
            if found > MAX_DELTA_CHAIN:
                raise _Miss("invalid", f"chain depth {found} is over the cap")
            if found:
                loaded = self._replayed(loaded)
        except _Miss:
            try:
                path.unlink()
            except OSError:
                pass
            raise
        self._touch(path)
        self._mark(key)
        return loaded, found

    def _replayed(self, frame: DeltaFrame) -> ForwardReductionResult:
        """The parent entry's artifact with ``frame``'s deltas applied
        (why that is safe on whatever valid artifact the parent address
        holds: :mod:`repro.core.cache_format`)."""
        if not self.ENTRY_KEY_PATTERN.match(frame.parent):
            raise _Miss("invalid", "parent is not an entry key")
        try:
            result, _ = self._load(frame.parent, frame.depth - 1)
        except _Miss as miss:
            reason, detail = miss.args
            if reason == "absent":
                raise _Miss("orphan", f"parent {frame.parent} is gone")
            if reason == "depth":
                raise _Miss("invalid", f"{detail}, not {frame.depth - 1}")
            raise
        try:
            for delta in frame.deltas:
                if delta.relation not in result.source_relations:
                    raise _Miss("replay", f"no atom over {delta.relation!r}")
                result.apply_delta(delta)
        except (DomainChanged, AttributeError) as exc:
            # AttributeError: a point where the atom has an interval
            raise _Miss("replay", str(exc)) from None
        return result

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh the LRU clock :meth:`prune` reads."""
        try:
            os.utime(path)
        except OSError:  # pruned meanwhile
            pass

    def put(
        self,
        key: str,
        result: ForwardReductionResult,
        deltas: Sequence[Delta] | None = None,
    ) -> None:
        """Store ``result`` under ``key`` atomically (write to a temp
        file in the same directory, then rename over the target).  The
        artifact is serialized to the framed layout — readers verify
        the frame's SHA-256 before trusting any field.  Artifacts the
        layout cannot express (exotic value types) skip the store and
        bump :attr:`unserializable`; losing a race against a concurrent
        prune of the same directory is silently absorbed — the cache is
        best-effort by contract.

        ``deltas`` is the patch path: the tuple-level deltas applied to
        ``result`` since this cache last stored or loaded it.  An entry
        already at ``key`` is then kept (``skipped_stores``) — which is
        why a chain cannot cycle: insert ``t``, delete ``t`` arrives
        back at the frame it started from and leaves it alone.
        Otherwise the entry is a delta frame chained to the one
        ``result`` came from, if that is known and under
        :data:`MAX_DELTA_CHAIN` links deep, else a full frame."""
        path = self._path(key)
        # where the artifact is stored is known again once this succeeds
        origin, result.stored_as = result.stored_as, None
        try:
            replaced = path.stat().st_size
        except OSError:  # includes FileNotFoundError: pruned or fresh
            replaced = 0
        if deltas is not None and replaced:
            self._touch(path)
            self._mark(key)
            self.skipped_stores += 1
            return
        depth = 0
        if (
            deltas
            and origin is not None
            and origin[0] != key
            and origin[1] < MAX_DELTA_CHAIN
        ):
            depth = origin[1] + 1
        try:
            if depth:
                frame = serialize_delta(origin[0], depth, deltas, FORMAT_VERSION)
            else:
                frame = serialize_result(result, FORMAT_VERSION)
        except CacheFormatError:
            self.unserializable += 1
            return
        try:
            _write_atomic(path, frame)
        except FileNotFoundError:
            # the shard directory vanished again after being remade, or
            # the temp file did — a concurrent pruner or cleaner won the
            # race; drop the store
            return
        self.stores += 1
        if depth:
            self.delta_stores += 1
        result.stored_as = (key, depth)
        self._mark(key)
        if self.max_bytes is not None:
            if self._tracked_bytes is None:
                self._tracked_bytes = self.size_bytes()
            else:
                self._tracked_bytes += len(frame) - replaced
            if self._tracked_bytes > self.max_bytes:
                self.prune(self.max_bytes)

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries (mtime order — hits touch
        the clock) until the directory's payload totals at most
        ``max_bytes``.  Returns the number of entries removed.  Entries
        that vanish concurrently (another worker pruned them) are
        skipped, never an error.  A killed writer's ``*.tmp`` counts
        towards the total and goes first once it is a minute old."""
        entries: list[tuple[float, int, Path]] = []
        total = 0
        stale = time.time() - _STALE_TEMP_S
        for path in (*self._entry_paths(), *self._temp_paths()):
            try:
                stat = path.stat()
                if path.suffix == ".tmp":  # a live writer's is left alone
                    if stat.st_mtime < stale:
                        path.unlink()
                        continue
                else:
                    entries.append((stat.st_mtime, stat.st_size, path))
            except OSError:
                continue
            total += stat.st_size
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
        try:
            _write_atomic(path, raw)
        except OSError:  # pragma: no cover - concurrent cleaner
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
        and writers' ``.tmp`` files included)."""
        total = 0
        for path in (*self._entry_paths(), *self._temp_paths()):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        """Number of entry files currently on disk (stray ``.pkl``
        files included)."""
        return len(self._entry_paths())

    @property
    def misses(self) -> int:
        return sum(self._misses.values())

    def stats(self) -> dict[str, int]:
        """Flat counters; ``misses`` is the sum of the ``miss_*``
        reasons (see :meth:`get`)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            **{f"miss_{reason}": n for reason, n in self._misses.items()},
            "stores": self.stores,
            "delta_stores": self.delta_stores,
            "skipped_stores": self.skipped_stores,
            "pruned": self.pruned,
            "unserializable": self.unserializable,
        }
