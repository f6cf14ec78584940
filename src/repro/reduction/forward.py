"""The forward reduction: IJ queries to disjunctions of EJ queries
(Section 4, Algorithm 1).

For each interval variable ``[X]`` occurring in ``k`` atoms, a segment
tree over all ``[X]``-intervals rewrites the k-way intersection
predicate into prefix constraints over node bitstrings (Lemma 4.4).  For
every permutation ``σ`` of the ``k`` atoms, the atom at position ``i``
receives fresh point variables ``X1..Xi`` whose concatenation is

* a canonical-partition node of its interval when ``i < k``
  (Definition 4.9, CP variant), or
* the leaf of its interval's left endpoint when ``i = k``
  (leaf variant).

Transformed relations are *shared*: the relation variant of an atom
depends only on its position per variable, so ``∏_X k_X`` variants per
atom serve all ``∏_X k_X!`` EJ disjuncts (the Section 1.1 observation
that relation schemas identify the transformed relations).

The builder is **whole-column**.  A node is an integer from the tree to
the matrix (:mod:`repro.intervals.bitstring`).  Given a *relation*,
:meth:`ForwardReducer.variant_relation` reads each source column once,
asks the variable's :class:`~repro.intervals.segment_tree.SegmentTree`
for the encodings of every column under that variable at once, one
batch per tree
(:meth:`~repro.intervals.segment_tree.SegmentTree.column_encodings`,
shared by every variant of every atom), and lays out the cartesian
products of all tuples together as index arithmetic on ``uint32`` arrays:
interpreter work is per input tuple, not per interval value.  Given a
*tuple* (a delta patch), :meth:`ForwardReductionResult.tuple_rows` takes
the scalar walk (:meth:`~repro.intervals.segment_tree.SegmentTree.encodings`),
a quarter of the cost of a one-value column.  What the code is handed
selects the path; nothing else does.  Part ids are written into the
matrix verbatim (``bits`` columns), point values through the artifact's
one codebook, provenance ids verbatim.  A variant with a provenance
column is kept exactly as the arithmetic lays it out — rows in
source-tuple order, each with refcount 1, no dedup or sort pass: the
provenance id separates tuples and one tuple's product is injective, so
its rows are distinct by construction.  Only a variant without one (the
plain reduction) is deduplicated.  No block is promised an order; the
one consumer that needs sorted rows, a delta patch, sorts the block it
patches.  The differential digest tests pin the decoded output, bit for
bit, to a naive per-tuple loop over the literal tree of Section 3 kept
under ``tests/oracles``.

With ``disjoint=True`` the Appendix G refinement is applied: after the
distinct-left-endpoint shift, every satisfying tuple combination is
witnessed by *exactly one* disjunct and one assignment, enabling exact
counting.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import permutations, product
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..engine.relation import Database, Delta, Relation
from ..intervals.endpoints import shift_row
from ..intervals.interval import Interval
from ..intervals.segment_tree import SegmentTree
from ..queries.query import Atom, Query, Variable, pvar
from ..hypergraph.transform import part_vertex
from .columnar import (
    CODE_DTYPE,
    COUNT_DTYPE,
    COL_BITS,
    COL_CODE,
    COL_ID,
    CodeBook,
    ColumnBlock,
    ColumnarCounts,
    distinct_rows,
)
from .disjoint import ShiftedDatabase

# variable name -> atom label -> 1-based permutation position
PositionMap = dict[str, dict[str, int]]


def digit_dtype(rows: int) -> np.dtype:
    """The integer type of a variant layout's mixed-radix digits, a pure
    function of its row count: ``int32`` while every row index fits,
    which makes ``np.divmod`` cheaper.  Index arrays stay ``intp``, which
    ``np.take`` would otherwise cast on every call."""
    return np.dtype(np.int32 if rows < 1 << 31 else np.int64)


class DomainChanged(Exception):
    """A delta cannot be applied to an existing reduction — the segment
    trees' endpoint domains no longer describe the data (a new endpoint
    appeared) or the change is not tuple-level.  Callers must re-run the
    full forward reduction.  :attr:`reason` names the cause, one of
    :attr:`REASONS` (raised where :meth:`ForwardReductionResult.apply_delta`
    and :mod:`repro.core.cache_format` find it)."""

    REASONS = (
        "not_tuple_level", "arity", "new_endpoint", "rank_table",
        "unknown_tuple", "no_refcounts",
    )

    def __init__(self, reason: str, message: str):
        if reason not in self.REASONS:
            raise ValueError(f"unknown DomainChanged reason {reason!r}")
        super().__init__(message)
        self.reason = reason


class Undecoded(partial):
    """A field of a cache-loaded artifact kept as its frame payload: a
    call decodes it, or raises :class:`DomainChanged`."""


def atom_counts(query: Query) -> dict[str, int]:
    """``k`` per interval variable: the number of atoms containing it —
    the position that takes the leaf variant (Definition 4.9)."""
    return {
        v.name: len(query.atoms_containing(v.name))
        for v in query.interval_variables
    }


@dataclass(frozen=True)
class _VariantSpec:
    """What one transformed relation looks like: per interval variable,
    the number of parts and whether the last part must be non-empty
    (Appendix G ordering constraint)."""

    atom_label: str
    parts: tuple[tuple[str, int], ...]            # (variable, i) sorted
    nonempty_last: tuple[str, ...] = ()            # variables with the constraint
    provenance: bool = False

    def name(self) -> str:
        pieces = [f"{x}{i}" for x, i in self.parts]
        suffix = "".join(pieces)
        extras = ""
        if self.nonempty_last:
            extras += "x" + "".join(self.nonempty_last)
        if self.provenance:
            extras += "p"
        return f"{self.atom_label}~{suffix}{extras or ''}"

    def columns(self, atom: Atom) -> list[tuple[str, str, str | None]]:
        """The variant's columns as ``(name, kind, interval variable)``:
        per interval variable its ``i`` part vertices (``bits``), point
        variables in place (``code``), the provenance id last (``id``)."""
        parts = dict(self.parts)
        columns: list[tuple[str, str, str | None]] = []
        for v in atom.variables:
            if v.is_interval:
                for j in range(1, parts[v.name] + 1):
                    columns.append((part_vertex(v.name, j), COL_BITS, v.name))
            else:
                columns.append((v.name, COL_CODE, None))
        if self.provenance and parts:
            columns.append((f"__id_{atom.label}", COL_ID, None))
        return columns

    def schema(self, atom: Atom) -> list[str]:
        return [name for name, *_ in self.columns(atom)]


@dataclass(frozen=True)
class EncodedQuery:
    """One EJ disjunct with the position map that generated it (read-only if derived)."""

    query: Query
    positions: Mapping[str, Mapping[str, int]]


class Variant(NamedTuple):
    """One transformed relation of a derived disjunction."""

    name: str
    atom: Atom  # the source atom
    spec: _VariantSpec
    schema: tuple[str, ...]
    kinds: tuple[str, ...]
    parts: tuple[str | None, ...]  # per column, whose tree bounds its ids


class Disjunction(NamedTuple):
    """What Theorem 4.15 reduces a query to, data aside: the query, its EJ
    disjuncts, per atom label its variant specs, the variants in first use."""

    query: Query
    encoded_queries: tuple[EncodedQuery, ...]
    atom_variants: Mapping[str, tuple[_VariantSpec, ...]]
    variants: tuple[Variant, ...]


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


def position_maps(query: Query) -> Iterator[PositionMap]:
    """All combinations of per-variable atom permutations."""
    per_variable: list[list[tuple[str, dict[str, int]]]] = []
    for v in query.interval_variables:
        labels = [a.label for a in query.atoms_containing(v.name)]
        options = [
            (v.name, {label: i + 1 for i, label in enumerate(sigma)})
            for sigma in permutations(labels)
        ]
        per_variable.append(options)
    for combo in product(*per_variable):
        yield {x: positions for x, positions in combo}


def requires_nonempty(atom: Atom, x: str, positions: PositionMap) -> bool:
    """Appendix G (Definition G.1): at position ``j`` with
    ``1 < j < k``, the part ``X_j`` must be non-empty when the label
    at position ``j-1`` exceeds this atom's label."""
    pos = positions[x]
    j = pos[atom.label]
    if j <= 1 or j >= len(pos):
        return False
    previous = next(
        label for label, position in pos.items() if position == j - 1
    )
    return previous > atom.label


def _encoded_atom(
    atom: Atom, positions: PositionMap, disjoint: bool, provenance: bool
) -> tuple[tuple[Variable, ...], _VariantSpec]:
    """The EJ schema of ``atom`` under ``positions`` and the spec of
    its transformed relation."""
    new_vars: list[Variable] = []
    parts: list[tuple[str, int]] = []
    nonempty: list[str] = []
    for v in atom.variables:
        if not v.is_interval:
            new_vars.append(v)
            continue
        i = positions[v.name][atom.label]
        parts.append((v.name, i))
        for j in range(1, i + 1):
            new_vars.append(pvar(part_vertex(v.name, j)))
        if disjoint and requires_nonempty(atom, v.name, positions):
            nonempty.append(v.name)
    spec = _VariantSpec(
        atom.label, tuple(sorted(parts)), tuple(sorted(nonempty)), provenance
    )
    if provenance and parts:
        new_vars.append(pvar(f"__id_{atom.label}"))
    return tuple(new_vars), spec


#: How many derivations :func:`disjunction` keeps (LRU).
DISJUNCTION_MEMO_SIZE = 256


@lru_cache(maxsize=DISJUNCTION_MEMO_SIZE)
def disjunction(
    key: tuple, name: str, disjoint: bool = False, provenance: bool = False
) -> Disjunction:
    """The disjunction the query ``key`` (:func:`query_content_key`)
    named ``name`` (the disjuncts' names carry it) reduces to under the
    flags, memoized per process: every artifact of one query shape,
    reduced or loaded, shares its disjunct objects."""
    query = Query(
        tuple(Atom(a, r, tuple(Variable(*v) for v in vs)) for a, r, vs in key),
        name=name,
    )
    encoded: list[EncodedQuery] = []
    atom_variants: dict[str, dict[_VariantSpec, None]] = {}
    variants: dict[str, Variant] = {}
    for index, positions in enumerate(position_maps(query)):
        atoms: list[Atom] = []
        for atom in query.atoms:
            new_vars, spec = _encoded_atom(atom, positions, disjoint, provenance)
            atom_variants.setdefault(atom.label, {}).setdefault(spec)
            if (relation := spec.name()) not in variants:
                columns = tuple(zip(*spec.columns(atom))) or ((), (), ())
                variants[relation] = Variant(relation, atom, spec, *columns)
            atoms.append(Atom(atom.label, relation, new_vars))
        frozen = {x: MappingProxyType(p) for x, p in positions.items()}
        disjunct = Query(tuple(atoms), name=f"{name}~{index}")
        encoded.append(EncodedQuery(disjunct, MappingProxyType(frozen)))
    return Disjunction(
        query,
        tuple(encoded),
        MappingProxyType({label: tuple(s) for label, s in atom_variants.items()}),
        tuple(variants.values()),
    )


@dataclass(frozen=True)
class _VariantLayout:
    """Where each source column lands in a variant's code matrix
    (:meth:`_VariantSpec.columns`): per interval variable its ``i`` part
    columns, point columns in place, provenance id last."""

    n_cols: int
    kinds: tuple[str, ...]
    #: per column, the id bound of a part column's tree (else ``None``)
    bounds: tuple[int | None, ...]
    #: per interval column: (first output col, i, the variable's tree,
    #: leaf variant?, nonempty_last, source tuple col)
    slots: tuple[tuple[int, int, SegmentTree, bool, bool, int], ...]
    #: per point column: (output col, source tuple col)
    point_cols: tuple[tuple[int, int], ...]
    prov_col: int | None

    @classmethod
    def of(
        cls,
        atom: Atom,
        spec: _VariantSpec,
        trees: Mapping[str, SegmentTree],
        k: Mapping[str, int],
    ) -> "_VariantLayout":
        parts = dict(spec.parts)
        nonempty = set(spec.nonempty_last)
        columns = spec.columns(atom)
        kinds = tuple(kind for _, kind, _ in columns)
        slots = []
        point_cols = []
        first = 0  # the variable's first output column
        for col, v in enumerate(atom.variables):
            if v.is_interval:
                i = parts[v.name]
                slots.append(
                    (first, i, trees[v.name], i == k[v.name], v.name in nonempty, col)
                )
                first += i
            else:
                point_cols.append((first, col))
                first += 1
        return cls(
            len(kinds),
            kinds,
            tuple(None if x is None else trees[x].id_bound for *_, x in columns),
            tuple(slots),
            tuple(point_cols),
            kinds.index(COL_ID) if COL_ID in kinds else None,
        )

    def template(self, values: Sequence) -> np.ndarray:
        """The one-tuple path (a relation goes through
        :meth:`ForwardReducer._vectorized_counts`): the cartesian product
        of the part encodings of one tuple's interval ``values`` (one
        per slot) as an ``(n_options, n_cols)`` matrix, in the order ``itertools.product`` enumerates it, laid
        out with mixed-radix ``np.repeat``/``np.tile`` index arrays.
        Point and provenance columns are left for the caller to fill.
        Empty when any slot has no option."""
        option_arrays = [
            tree.encodings(value, i, leaf, flag)
            for (_, i, tree, leaf, flag, _), value in zip(self.slots, values)
        ]
        total = 1
        for arr in option_arrays:
            total *= arr.shape[0]
        template = np.empty((total, self.n_cols), dtype=CODE_DTYPE)
        if total == 0:
            return template
        repeat, tile = total, 1
        for (first, i, *_), arr in zip(self.slots, option_arrays):
            s = arr.shape[0]
            repeat //= s
            idx = np.tile(np.repeat(np.arange(s), repeat), tile)
            template[:, first : first + i] = np.take(arr, idx, axis=0)
            tile *= s
        return template


@dataclass
class ForwardReductionResult:
    """Output of the full forward reduction (Theorem 4.13)."""

    original: Query
    encoded_queries: Sequence[EncodedQuery]
    database: Database
    segment_trees: dict[str, SegmentTree] = field(default_factory=dict)
    #: atom label -> input tuples in provenance-id order: the tuple at
    #: index ``i`` is the one the reduction tagged ``__id_<label> = i``.
    #: Slots of tuples deleted by :meth:`apply_delta` hold ``None`` so
    #: surviving provenance ids stay stable.  Given :class:`Undecoded`
    #: (a cache load), decoded on first read — so are :attr:`ranks`.
    tuple_order: dict[str, list[tuple]] = field(default_factory=dict)
    #: atom label -> the transformed-relation variants built for it
    #: (every distinct :class:`_VariantSpec` across all disjuncts) —
    #: the patch metadata :meth:`apply_delta` walks.
    atom_variants: Mapping[str, tuple] = field(default_factory=dict)
    #: variant relation name -> per derived row (parallel to the
    #: relation's code matrix), the number of distinct input tuples
    #: deriving it.  Needed to delete safely under set semantics: a
    #: derived row disappears only when its last deriving input tuple
    #: does.
    variant_counts: dict[str, ColumnarCounts] = field(default_factory=dict)
    #: the one dictionary of point values every block of
    #: :attr:`database` is over (interval parts need none)
    codebook: CodeBook = field(default_factory=CodeBook)
    #: variant spec -> its column layout, as the reducer built it; a
    #: cache-loaded result fills this on its first patch
    layouts: dict = field(default_factory=dict)
    #: the G.1 rank table of a shifted reduced database (else ``None``):
    #: deltas and witnesses stay in source space, shifted against it
    ranks: tuple | None = None
    #: :attr:`encoded_queries` indices cheapest-first, once ranked
    #: (:func:`repro.core.disjunct_eval.evaluation_order`) or loaded;
    #: :meth:`apply_delta` drops it
    disjunct_order: tuple[int, ...] | None = field(
        default=None, compare=False, repr=False
    )
    #: ``(address, delta-chain depth)`` of the persistent-cache entry
    #: that holds exactly this object's current content, or ``None`` —
    #: written by :class:`~repro.core.reduction_cache.ReductionCache`
    #: only, after a successful load or store
    stored_as: tuple[str, int] | None = field(
        default=None, compare=False, repr=False
    )
    disjoint: bool = False  # the flags of the :func:`disjunction`
    provenance: bool = False

    @property
    def ej_queries(self) -> list[Query]:
        return [e.query for e in self.encoded_queries]

    @property
    def source_relations(self) -> frozenset[str]:
        """Names of the input relations this reduction was computed
        from (``original.relations``): a mutation outside this set can
        never make the reduction stale."""
        return self.original.relations

    def blowup(self, original_db: Database) -> float:
        """``|D̃| / |D|`` — the measured polylog blowup (Lemma 4.10)."""
        if original_db.size == 0:
            return 0.0
        return self.database.size / original_db.size

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------

    def apply_delta(self, delta: Delta) -> None:
        """Patch the transformed database in place for one tuple-level
        mutation of a source relation, instead of re-running Algorithm 1.

        The delta is over the *source* database; an artifact of the
        G.1-shifted copy shifts it against its frozen :attr:`ranks` (an
        endpoint absent from them would move every rank).  For an
        **insert** whose interval
        endpoints already lie in the segment trees' endpoint domains,
        the trees a fresh reduction would build are *identical* to the
        stored ones, so appending the tuple's derived rows (per variant,
        via :meth:`tuple_rows`) reproduces the fresh reduction
        exactly.  For a **delete**, the stored trees remain
        valid (their endpoint domain is a superset of the remaining
        intervals'), so removing the tuple's derived rows — refcounted
        in :attr:`variant_counts`, since set semantics may share rows
        between input tuples — yields a correct, if not bit-identical,
        reduction.  Provenance ids stay stable: inserts append to
        :attr:`tuple_order`, deletes leave a ``None`` sentinel.

        Raises :class:`DomainChanged` when a full re-reduction is
        required: a whole-relation delta (``add``/``replace``/
        ``remove``), an endpoint outside the rank table, or an insert
        with an endpoint outside a tree's domain.  A delta whose
        relation is not referenced by the query is a no-op.

        Every variant — point-only copies of a source relation
        included — is patched in array space: the tuple's derived rows
        are encoded against the artifact's own trees and codebook
        (point values looked up, never interned, on a delete), located
        in the ``uint32`` code matrix by packed-key binary search, and
        the ``int64`` refcounts bumped — new rows spliced in, dead rows
        masked out
        (:meth:`~repro.reduction.columnar.ColumnarCounts.adjust`).  It
        is copy-on-write: arrays may be read-only views of a mapped
        cache file, so a patch swaps in new arrays and never stores
        into the old ones.  The relation keeps its column block, so the
        patched artifact evaluates as it did before (and, when a cache
        re-persists it whole, stores as raw blobs).
        """
        if delta.relation not in self.source_relations:
            return
        self.disjunct_order = None  # ranked on the pre-delta relations
        if not delta.is_tuple_level or delta.tuple is None:
            raise DomainChanged(
                "not_tuple_level", f"a {delta.kind!r} delta on {delta.relation!r}"
            )
        atoms = [
            a for a in self.original.atoms if a.relation == delta.relation
        ]
        t = delta.tuple
        for atom in atoms:
            if len(t) != len(atom.variables):
                raise DomainChanged("arity", f"tuple {t} does not fit {atom.label}")
        if self.ranks is not None:
            # a shifted artifact's query is self-join-free: one atom
            t = self._shifted(atoms[0], t)
        if delta.kind == "insert":
            for atom in atoms:
                for v, value in zip(atom.variables, t):
                    if v.is_interval and not self.segment_trees[
                        v.name
                    ].in_domain(value):
                        raise DomainChanged(
                            "new_endpoint", f"{value} is outside [{v.name}]'s domain"
                        )
        self._patch(atoms, t, inserting=delta.kind == "insert")

    def _shifted(self, atom: Atom, t: tuple) -> tuple:
        """Source tuple ``t`` of ``atom`` where the G.1 shift put it."""
        ranks, rank = self.ranks, {}
        positions = [i for i, v in enumerate(atom.variables) if v.is_interval]
        for p in (e for i in positions for e in (t[i].left, t[i].right)):
            rank[p] = r = bisect_left(ranks, p)
            if r == len(ranks) or ranks[r] != p:
                raise DomainChanged(
                    "rank_table", f"endpoint {p!r} is not in the rank table"
                )
        slot = self.original.atoms.index(atom) + 1
        return shift_row(t, positions, slot, len(self.original.atoms), rank)

    def source_tuple(self, atom: Atom, tuple_id: int) -> tuple:
        """The input tuple provenance id ``tuple_id`` of ``atom`` names,
        unshifted by arithmetic when the artifact is G.1-shifted."""
        t = self.tuple_order[atom.label][tuple_id]
        if self.ranks is None:
            return t
        m = len(self.original.atoms) + 1
        return tuple(
            Interval(self.ranks[x.left // m], self.ranks[x.right // m])
            if v.is_interval
            else x
            for v, x in zip(atom.variables, t)
        )

    def tuple_rows(
        self,
        atom: Atom,
        spec: _VariantSpec,
        t: tuple,
        tuple_id: int,
        intern: bool,
    ) -> np.ndarray:
        """The distinct rows one input tuple contributes to one
        transformed relation variant (the per-tuple body of Definition
        4.9), as a ``uint32`` matrix — what a delta patch adds to or
        removes from the variant.  Distinct canonical-partition nodes
        and distinct splits never concatenate to the same parts, so the
        rows carry no within-tuple multiplicity.

        With ``intern=False`` point values are only looked up: a row
        holding a value the book has never seen is in no block of the
        artifact, so there are no rows to report — which is what a
        delete wants, and keeps deletes from growing the book every
        later cache store re-serializes."""
        layout = self.layouts.get(spec)
        if layout is None:
            layout = self.layouts[spec] = _VariantLayout.of(
                atom, spec, self.segment_trees, atom_counts(self.original)
            )
        rows = layout.template([t[col] for *_, col in layout.slots])
        book = self.codebook
        for out_col, col in layout.point_cols:
            code = book.code(t[col]) if intern else book.lookup(t[col])
            if code is None:
                return rows[:0]
            rows[:, out_col] = code
        if layout.prov_col is not None:
            rows[:, layout.prov_col] = tuple_id
        return rows

    def _patch(self, atoms: list[Atom], t: tuple, inserting: bool) -> None:
        # assign/locate the tuple's provenance id per atom label; order
        # lists are shared between self-join atoms of one relation, so
        # adjust each underlying list exactly once
        ids: dict[str, int] = {}
        adjusted: set[int] = set()
        for atom in atoms:
            order = self.tuple_order[atom.label]
            if inserting:
                if id(order) not in adjusted:
                    order.append(t)
                    adjusted.add(id(order))
                ids[atom.label] = len(order) - 1
            else:
                try:
                    ids[atom.label] = order.index(t)
                except ValueError:
                    raise DomainChanged(
                        "unknown_tuple", f"{atom.label} has no tuple {t}"
                    ) from None
        for atom in atoms:
            for spec in self.atom_variants[atom.label]:
                counts = self.variant_counts.get(spec.name())
                if counts is None:
                    raise DomainChanged("no_refcounts", f"{spec.name()} has none")
                counts.adjust(
                    self.tuple_rows(atom, spec, t, ids[atom.label], inserting),
                    1 if inserting else -1,
                )
        if not inserting:
            cleared: set[int] = set()
            for atom in atoms:
                order = self.tuple_order[atom.label]
                if id(order) not in cleared:
                    order[ids[atom.label]] = None
                    cleared.add(id(order))


def _decoded_on_read(name: str) -> property:
    """Field ``name``, held as ``_<name>``: an :class:`Undecoded` value
    is decoded on its first read and kept.  Installed after the
    dataclass is built, so its ``__init__`` / ``__eq__`` go through it."""
    slot = f"_{name}"

    def get(self):
        value = self.__dict__[slot]
        if isinstance(value, Undecoded):
            value = self.__dict__[slot] = value()
        return value

    return property(get, lambda self, value: self.__dict__.__setitem__(slot, value))


ForwardReductionResult.tuple_order = _decoded_on_read("tuple_order")
ForwardReductionResult.ranks = _decoded_on_read("ranks")


class ForwardReducer:
    """Shared-variant forward reduction for one (query, database) pair.

    One builder: every variant is a ``uint32`` code matrix laid out by
    whole-column index arithmetic with ``int64`` refcounts
    (:meth:`_vectorized_counts`), all over :attr:`trees` and the one
    :attr:`codebook`; each source column is read once (:meth:`_column`).
    """

    def __init__(
        self,
        query: Query,
        db: Database,
        disjoint: bool = False,
        provenance: bool = False,
    ):
        self.query = query
        self.db = db
        self.disjoint = disjoint
        self.provenance = provenance
        self.ranks = db.ranks if isinstance(db, ShiftedDatabase) else None
        self.k = atom_counts(query)
        self._tuple_order: dict[str, list[tuple]] = {}
        # (relation, column) -> (distinct values, each tuple's position)
        self._columns: dict[tuple[str, int], tuple[list, np.ndarray]] = {}
        self._point_codes: dict[tuple[str, int], np.ndarray] = {}
        # variable -> its encoding batch: the distinct values of every
        # column under it end to end, and each (relation, column)'s
        # offset among them; read by name when a variant is built, so
        # the tree is whatever ``trees`` then holds
        self._batches: dict[str, tuple[list, dict[tuple[str, int], int]]] = {}
        self._layouts: dict[_VariantSpec, _VariantLayout] = {}
        self.trees: dict[str, SegmentTree] = {}
        for x in query.interval_variable_names():
            values: list = []
            offsets: dict[tuple[str, int], int] = {}
            for atom in query.atoms_containing(x):
                key = (atom.relation, atom.variable_names.index(x))
                if key not in offsets:
                    offsets[key] = len(values)
                    values += self._column(*key)[0]
            self._batches[x] = (values, offsets)
            self.trees[x] = SegmentTree.from_endpoints(
                [v.left for v in values] + [v.right for v in values]
            )
        self.codebook = CodeBook()
        self._variant_counts: dict[str, ColumnarCounts] = {}

    def relation_order(self, relation_name: str) -> list[tuple]:
        """The fixed enumeration of a relation's tuples that provenance
        ids index into — computed once per relation and shared by every
        variant (and exposed via :attr:`ForwardReductionResult.tuple_order`
        so consumers never have to re-derive it)."""
        order = self._tuple_order.get(relation_name)
        if order is None:
            order = sorted(self.db[relation_name].tuples, key=repr)
            self._tuple_order[relation_name] = order
        return order

    def _column(self, relation: str, col: int) -> tuple[list, np.ndarray]:
        """One source column, read once: its distinct values in order
        of first appearance and, per tuple of :meth:`relation_order`,
        the position of its value among them."""
        column = self._columns.get((relation, col))
        if column is None:
            seen: dict = {}
            index = np.array(
                [
                    seen.setdefault(t[col], len(seen))
                    for t in self.relation_order(relation)
                ],
                dtype=np.intp,
            )
            column = self._columns[relation, col] = (list(seen), index)
        return column

    def _codes(self, relation: str, col: int) -> np.ndarray:
        """One point column as codebook codes, per tuple of
        :meth:`relation_order` — interned once per distinct value."""
        codes = self._point_codes.get((relation, col))
        if codes is None:
            values, index = self._column(relation, col)
            codes = self.codebook.encode_column(values)[index]
            self._point_codes[relation, col] = codes
        return codes

    # ------------------------------------------------------------------
    # database-level transformation (Definition 4.9)
    # ------------------------------------------------------------------

    def variant_relation(self, atom: Atom, spec: _VariantSpec) -> Relation:
        block, count_array = self._vectorized_counts(atom, spec)
        self._variant_counts[spec.name()] = ColumnarCounts(block, count_array)
        return Relation.from_columns(spec.name(), spec.schema(atom), block)

    def _vectorized_counts(
        self, atom: Atom, spec: _VariantSpec
    ) -> tuple[ColumnBlock, np.ndarray]:
        """The variant builder, for a whole relation at once.  Encodings
        are batched per tree: every column under a slot's variable is
        one batch, walked once per kind and cut once per
        part count however many variants of however many atoms ask, and
        one gather at the column's offset turns it into each tuple's
        option count and first option row.  The cartesian products of
        *all* tuples are laid out together: a derived row knows its
        source tuple (``np.repeat``) and its position within that
        tuple's product, whose mixed-radix digits (last slot fastest,
        the order of ``itertools.product``; one ``np.divmod`` per slot,
        in :func:`digit_dtype`) pick one option row per slot from the
        batch matrix.  Every gather of rows, counts, starts and point
        codes is an ``np.take``, which moves rows several times faster
        than fancy indexing.  A tuple with an empty option list in a
        slot derives no row; a point-only atom is the degenerate case of
        one row per tuple.

        One tuple's product is injective (distinct canonical-partition
        nodes and distinct splits never concatenate to the same parts),
        so a variant with a provenance column is emitted exactly as laid
        out: its rows are distinct by construction, in source-tuple
        order, each with refcount 1.  Without one, two tuples can derive
        the same row (distinct intervals can share a canonical
        partition), so ``distinct_rows`` deduplicates globally with the
        multiplicities as refcounts.  Either way the rows and counts are
        a naive per-tuple loop's; neither order is promised to
        :meth:`~repro.reduction.columnar.ColumnarCounts.adjust`, which
        sorts a block the first time it patches it.  A single tuple (a
        delta patch) goes through
        :meth:`ForwardReductionResult.tuple_rows` instead.
        """
        layout = _VariantLayout.of(atom, spec, self.trees, self.k)
        self._layouts[spec] = layout
        relation = atom.relation
        n_src = len(self.relation_order(relation))
        options = []
        total = np.ones(n_src, dtype=np.int64)
        for first, i, tree, leaf, flag, col in layout.slots:
            # a self-join reads one column under two variables: the
            # variable picks the batch
            values, offsets = self._batches[atom.variables[col].name]
            matrix, starts, counts = tree.column_encodings(values, i, leaf, flag)
            index = self._column(relation, col)[1] + offsets[relation, col]
            counts = np.take(counts, index)
            options.append((first, i, matrix, np.take(starts, index), counts))
            total *= counts
        dtype = digit_dtype(int(total.sum()))
        src = np.repeat(np.arange(n_src), total)
        rows = np.empty((src.size, layout.n_cols), dtype=CODE_DTYPE)
        within = np.arange(src.size, dtype=dtype)
        within -= np.repeat((np.cumsum(total) - total).astype(dtype), total)
        for first, i, matrix, starts, counts in reversed(options):
            within, digit = np.divmod(within, np.take(counts.astype(dtype), src))
            at = np.take(starts, src) + digit
            rows[:, first : first + i] = np.take(matrix, at, axis=0)
        for out_col, col in layout.point_cols:
            rows[:, out_col] = np.take(self._codes(relation, col), src)
        if layout.prov_col is not None:
            rows[:, layout.prov_col] = src
            counts = np.ones(src.size, dtype=COUNT_DTYPE)
        else:
            rows, counts = distinct_rows(rows)
        return ColumnBlock(rows, layout.kinds, self.codebook, layout.bounds), counts

    # ------------------------------------------------------------------
    # full reduction
    # ------------------------------------------------------------------

    def reduce(self) -> ForwardReductionResult:
        """Run Algorithm 1: the query's (memoized) disjuncts plus the
        shared database."""
        key = query_content_key(self.query)
        derived = disjunction(key, self.query.name, self.disjoint, self.provenance)
        database = Database()
        for variant in derived.variants:
            database.add(self.variant_relation(variant.atom, variant.spec))
        tuple_order = {
            atom.label: self.relation_order(atom.relation)
            for atom in self.query.atoms
        }
        return ForwardReductionResult(
            self.query,
            derived.encoded_queries,
            database,
            dict(self.trees),
            tuple_order,
            derived.atom_variants,
            self._variant_counts,
            self.codebook,
            self._layouts,
            self.ranks,
            disjoint=self.disjoint,
            provenance=self.provenance,
        )


def forward_reduce(
    query: Query,
    db: Database,
    disjoint: bool = False,
    provenance: bool = False,
) -> ForwardReductionResult:
    """Full forward reduction of an IJ/EIJ query and database."""
    return ForwardReducer(query, db, disjoint, provenance).reduce()
