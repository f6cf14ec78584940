"""Relations and databases.

A :class:`Relation` is a named set of tuples over a schema of variable
names.  Values are arbitrary hashables — numbers or node ids for EJ
relations, :class:`~repro.intervals.Interval` objects for IJ relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

Value = Hashable
Tuple_ = tuple


@dataclass(frozen=True)
class Delta:
    """One recorded database mutation.

    ``kind`` is one of

    * ``"insert"`` / ``"delete"`` — a single-tuple change (``tuple`` is
      the affected tuple); these are the *patchable* kinds consumers can
      apply to derived artifacts without recomputing them;
    * ``"add"`` / ``"replace"`` / ``"remove"`` — a whole-relation change
      (``tuple`` is ``None``); artifacts over the relation must be
      rebuilt.

    ``version`` is the database's monotone version counter *after* the
    mutation; the change log orders deltas by it.
    """

    version: int
    kind: str
    relation: str
    tuple: tuple | None = None

    @property
    def is_tuple_level(self) -> bool:
        return self.kind in ("insert", "delete")


class _VersionedSet(set):
    """The tuple set of a row-backed :class:`Relation`: a ``set`` whose
    every mutating method first advances :attr:`version`, so a consumer
    that remembers the version knows the contents it derived artifacts
    from are still the contents, without reading a tuple.  The version
    advances per mutating *call*, whether or not the call changed
    anything — conservative, never stale."""

    def __init__(self, rows: Iterable[tuple] = (), version: int = 0):
        super().__init__(rows)
        self.version = version


def _advancing(name: str):
    mutate = getattr(set, name)

    def method(self, *args):
        self.version += 1
        return mutate(self, *args)

    method.__name__ = name
    return method


for _name in (
    "add", "discard", "remove", "pop", "clear", "update",
    "difference_update", "intersection_update",
    "symmetric_difference_update",
    "__ior__", "__iand__", "__isub__", "__ixor__",
):
    setattr(_VersionedSet, _name, _advancing(_name))


class Relation:
    """An in-memory relation with set semantics, in one of two forms
    fixed at construction.

    A **row-backed** relation (the constructor) holds a mutable Python
    tuple set — the form source databases are loaded and mutated in.
    The set observes its own mutation: ``relation.tuples.add(...)``,
    ``|=``, ``.clear()`` and assigning ``relation.tuples = ...`` all
    advance :attr:`version`, exactly like :meth:`Database.insert`.

    A **block-backed** relation (:meth:`from_columns`) holds its rows as
    a ``uint32`` code matrix
    (:class:`~repro.reduction.columnar.ColumnBlock`, possibly an
    ``np.memmap`` view of a cache entry) and keeps that block for life:
    everything a reducer emits is block-backed, and the evaluation
    kernels, cardinality statistics (:meth:`__len__`,
    :meth:`distinct_count`) and the cache serializer read the arrays.
    :attr:`tuples` is then a read-only decoded view (a ``frozenset``,
    decoded once per matrix), so looking at an artifact never degrades
    it.  A block-backed relation changes only through its block: the
    delta-patch path
    (:meth:`~repro.reduction.forward.ForwardReductionResult.apply_delta`)
    swaps a new code matrix into the *same* block object
    (:meth:`~repro.reduction.columnar.ColumnBlock.replace_rows`,
    copy-on-write — the old matrix may be a read-only mapped file).
    """

    #: ``(version, sha)`` memo of
    #: :func:`repro.core.reduction_cache.relation_digest`, and its
    #: per-tuple encodings: ``id(t) -> (t, line)`` over the tuples live
    #: at that digest (holding ``t`` keeps its id unique)
    _digest: tuple[int, str] | None = None
    _encoded: dict[int, tuple[tuple, bytes]] | None = None

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        tuples: Iterable[Sequence[Value]] = (),
    ):
        self.name = name
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise ValueError(f"duplicate attribute in schema {self.schema}")
        width = len(self.schema)
        data: set[tuple] = set()
        for t in tuples:
            tt = tuple(t)
            if len(tt) != width:
                raise ValueError(
                    f"tuple {tt} does not match schema {self.schema}"
                )
            data.add(tt)
        self._tuples = _VersionedSet(data)
        self._columns = None

    @classmethod
    def from_columns(cls, name: str, schema: Sequence[str], block) -> "Relation":
        """A block-backed relation over ``block`` (a
        :class:`~repro.reduction.columnar.ColumnBlock` whose width must
        match the schema)."""
        self = cls.__new__(cls)
        self.name = name
        self.schema = tuple(schema)
        if block.width != len(self.schema):
            raise ValueError(
                f"column block width {block.width} does not match "
                f"schema {self.schema}"
            )
        self._tuples = None
        self._columns = block
        return self

    @property
    def tuples(self) -> set[tuple] | frozenset[tuple]:
        if self._columns is not None:
            return self._columns.tuple_set()
        return self._tuples

    @tuples.setter
    def tuples(self, value: Iterable[tuple]) -> None:
        if self._columns is not None:
            raise AttributeError(
                f"{self.name} is block-backed: its rows change only "
                f"through its column block"
            )
        if value is not self._tuples:  # ``r.tuples |= x`` assigns it back
            self._tuples = _VersionedSet(value, self._tuples.version + 1)

    @property
    def version(self) -> int:
        """Monotone content version: advanced by every mutation of the
        tuple set (row-backed) or every
        :meth:`~repro.reduction.columnar.ColumnBlock.replace_rows` of
        the block (block-backed).  An unchanged version means unchanged
        contents; consumers compare it instead of scanning tuples."""
        if self._columns is not None:
            return self._columns.version
        return self._tuples.version

    @property
    def columnar(self):
        """The :class:`~repro.reduction.columnar.ColumnBlock` of a
        block-backed relation, ``None`` for a row-backed one."""
        return self._columns

    def sample_tuple(self) -> tuple | None:
        """An arbitrary row, or ``None`` when empty.  Block-backed
        relations decode exactly one row instead of the whole set."""
        block = self._columns
        if block is not None:
            return block.row(0) if block.row_count else None
        return next(iter(self._tuples), None)

    # ------------------------------------------------------------------
    # pickling (``spawn`` ships a worker its database this way): always
    # the row-backed form — column blocks (possibly memmap-backed)
    # never cross a process boundary
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "schema": self.schema,
            "tuples": set(self.tuples),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.schema = tuple(state["schema"])
        self._tuples = _VersionedSet(state["tuples"])
        self._columns = None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._columns is not None:
            return self._columns.row_count
        return len(self._tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, t: Sequence[Value]) -> bool:
        return tuple(t) in self.tuples

    @property
    def arity(self) -> int:
        return len(self.schema)

    def position(self, attribute: str) -> int:
        return self.schema.index(attribute)

    def column(self, attribute: str) -> list[Value]:
        i = self.position(attribute)
        return [t[i] for t in self.tuples]

    # ------------------------------------------------------------------
    # relational algebra
    # ------------------------------------------------------------------

    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        idx = [self.position(a) for a in attributes]
        return Relation(
            name or f"pi_{self.name}",
            attributes,
            {tuple(t[i] for i in idx) for t in self.tuples},
        )

    def select(
        self, predicate: Callable[[Mapping[str, Value]], bool],
        name: str | None = None,
    ) -> "Relation":
        kept = [
            t for t in self.tuples
            if predicate(dict(zip(self.schema, t)))
        ]
        return Relation(name or f"sigma_{self.name}", self.schema, kept)

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        new_schema = [mapping.get(a, a) for a in self.schema]
        return Relation(name or self.name, new_schema, self.tuples)

    def join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural hash join on the shared attributes."""
        shared = [a for a in self.schema if a in other.schema]
        other_only = [a for a in other.schema if a not in self.schema]
        out_schema = list(self.schema) + other_only
        my_idx = [self.position(a) for a in shared]
        their_idx = [other.position(a) for a in shared]
        rest_idx = [other.position(a) for a in other_only]
        index: dict[tuple, list[tuple]] = {}
        for t in other.tuples:
            index.setdefault(tuple(t[i] for i in their_idx), []).append(t)
        out: set[tuple] = set()
        for t in self.tuples:
            key = tuple(t[i] for i in my_idx)
            for u in index.get(key, ()):
                out.add(t + tuple(u[i] for i in rest_idx))
        return Relation(name or f"{self.name}_join_{other.name}", out_schema, out)

    def semijoin(self, other: "Relation") -> "Relation":
        """Tuples of ``self`` that join with some tuple of ``other``."""
        shared = [a for a in self.schema if a in other.schema]
        if not shared:
            return self if len(other) else Relation(self.name, self.schema)
        my_idx = [self.position(a) for a in shared]
        their_idx = [other.position(a) for a in shared]
        keys = {tuple(t[i] for i in their_idx) for t in other.tuples}
        kept = [
            t for t in self.tuples if tuple(t[i] for i in my_idx) in keys
        ]
        return Relation(self.name, self.schema, kept)

    def distinct_values(self, attribute: str) -> set[Value]:
        i = self.position(attribute)
        return {t[i] for t in self.tuples}

    def distinct_count(self, attribute: str) -> int:
        """Number of distinct values in a column — answered from the
        code arrays of a block-backed relation (codes are injective,
        so distinct codes = distinct values)."""
        if self._columns is not None:
            return self._columns.distinct_count(self.position(attribute))
        return len(self.distinct_values(attribute))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({', '.join(self.schema)})[{len(self)}]"


class Database:
    """A named collection of relations, with a mutation change log.

    Every mutation made through the public API — :meth:`add`,
    :meth:`insert`, :meth:`delete`, :meth:`replace`, :meth:`remove` —
    bumps a monotone :attr:`version` counter and appends a
    :class:`Delta` to a bounded change log, so consumers that cache
    artifacts derived from the data (e.g.
    :class:`~repro.core.session.QuerySession`) can see *what* changed
    since a version they remember, not just *that* something changed,
    and patch instead of rebuilding.  Mutating ``relation.tuples``
    directly still works but bypasses the log; it still advances the
    relation's own :attr:`Relation.version`, so consumers see a version
    gap the log does not account for and fall back to a full rebuild.
    """

    #: Retained change-log length.  Once exceeded, the oldest deltas are
    #: dropped and :meth:`changes_since` reports the log as incomplete
    #: (``None``) for versions that precede the retained window.
    CHANGE_LOG_MAX = 10_000

    def __init__(self, relations: Iterable[Relation] = ()):
        self._relations: dict[str, Relation] = {}
        self._version = 0
        self._log: list[Delta] = []
        self._log_floor = 0  # changes_since(v) is complete iff v >= floor
        for r in relations:
            self.add(r)

    def __getstate__(self) -> dict:
        # the shared session QuerySession.for_database attaches is
        # process-local and may be in use on another thread while a
        # respawn pickles the database: a pickled copy starts without one
        state = dict(self.__dict__)
        state.pop("_query_session", None)
        return state

    # ------------------------------------------------------------------
    # the change log
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumped by every logged mutation."""
        return self._version

    def changes_since(self, version: int) -> list[Delta] | None:
        """The deltas applied after ``version``, oldest first — or
        ``None`` when the log has been trimmed past ``version`` and can
        no longer account for every change (callers must then rebuild
        whatever they derived from a changed relation).  The retained
        log holds versions ``floor + 1 .. version`` consecutively, so
        the answer is one slice: O(answer), not O(log)."""
        if version >= self._version:
            return []
        if version < self._log_floor:
            return None
        return self._log[version - self._log_floor :]

    def _record(self, kind: str, relation: str, t: tuple | None = None) -> Delta:
        self._version += 1
        delta = Delta(self._version, kind, relation, t)
        self._log.append(delta)
        if len(self._log) > self.CHANGE_LOG_MAX:
            del self._log[: len(self._log) - self.CHANGE_LOG_MAX]
            self._log_floor = self._log[0].version - 1
        return delta

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add(self, relation: Relation) -> None:
        if relation.name in self._relations:
            raise ValueError(f"duplicate relation name {relation.name}")
        self._relations[relation.name] = relation
        self._record("add", relation.name)

    def insert(self, name: str, t: Sequence[Value]) -> Delta | None:
        """Insert one tuple into the named relation; returns the logged
        :class:`Delta`, or ``None`` when the tuple was already present
        (set semantics — a no-op is not logged)."""
        relation = self._relations[name]
        tt = tuple(t)
        if len(tt) != relation.arity:
            raise ValueError(
                f"tuple {tt} does not match schema {relation.schema}"
            )
        if tt in relation.tuples:
            return None
        relation.tuples.add(tt)
        return self._record("insert", name, tt)

    def delete(self, name: str, t: Sequence[Value]) -> Delta | None:
        """Delete one tuple from the named relation; returns the logged
        :class:`Delta`, or ``None`` when the tuple was absent."""
        relation = self._relations[name]
        tt = tuple(t)
        if tt not in relation.tuples:
            return None
        relation.tuples.discard(tt)
        return self._record("delete", name, tt)

    def replace(self, relation: Relation) -> Delta:
        """Replace the same-named relation wholesale (schema may
        change).  The relation must already exist — use :meth:`add` for
        new names."""
        if relation.name not in self._relations:
            raise KeyError(relation.name)
        self._relations[relation.name] = relation
        return self._record("replace", relation.name)

    def remove(self, name: str) -> Delta:
        """Drop a relation from the database entirely."""
        if name not in self._relations:
            raise KeyError(name)
        del self._relations[name]
        return self._record("remove", name)

    def apply_delta(self, delta: Delta) -> Delta | None:
        """Replay one *imported* tuple-level delta — the consumer half of
        delta-log replication: a shard that received ``delta`` from
        another node's change log applies it through the same logged
        mutation API, so its own consumers (sessions, pools) see it as a
        patchable local mutation.  Idempotent under set semantics: a
        delta that no longer changes anything returns ``None`` and is
        not logged.  Whole-relation deltas cannot be replayed
        tuple-wise; callers must fall back to a snapshot."""
        if not delta.is_tuple_level:
            raise ValueError(
                f"cannot replay whole-relation delta {delta.kind!r}; "
                f"rebuild from a snapshot instead"
            )
        if delta.kind == "insert":
            return self.insert(delta.relation, delta.tuple)
        return self.delete(delta.relation, delta.tuple)

    def clone(self) -> "Database":
        """An independent copy: fresh relations (sharing the immutable
        tuples), fresh change log starting at version 0.  This is the
        snapshot operation behind tenancy and hot-reload — each shard
        mutates its copy through its own log, fed by a replicated
        stream of deltas, and converges because tuple-level deltas are
        idempotent."""
        fresh = Database()
        for relation in self:
            fresh._relations[relation.name] = Relation(
                relation.name, relation.schema, relation.tuples
            )
        return fresh

    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    @property
    def size(self) -> int:
        """Total number of tuples (the ``|D|`` of the complexity bounds)."""
        return sum(len(r) for r in self._relations.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(r) for r in self._relations.values())
        return f"Database({inner})"


def relation_from_mapping(
    name: str,
    schema: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
) -> Relation:
    """Build a relation from dict-like rows (missing keys are an error)."""
    return Relation(name, schema, [[row[a] for a in schema] for row in rows])
