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
for the encodings of the whole column of distinct values at once
(:meth:`~repro.intervals.segment_tree.SegmentTree.column_encodings`,
shared by the atom's variants), and lays out the cartesian products of
all tuples together as index arithmetic on ``uint32`` arrays:
interpreter work is per input tuple, not per interval value.  Given a
*tuple* (a delta patch), :meth:`ForwardReductionResult.tuple_rows` takes
the scalar walk (:meth:`~repro.intervals.segment_tree.SegmentTree.encodings`),
a quarter of the cost of a one-value column.  What the code is handed
selects the path; nothing else does.  Part ids are written into the
matrix verbatim (``bits`` columns), point values through the artifact's
one codebook, provenance ids verbatim.  The differential digest tests
pin the decoded output, bit for bit, to a naive per-tuple loop on
bitstrings kept under ``tests/oracles``.

With ``disjoint=True`` the Appendix G refinement is applied: after the
distinct-left-endpoint shift, every satisfying tuple combination is
witnessed by *exactly one* disjunct and one assignment, enabling exact
counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..engine.relation import Database, Delta, Relation
from ..intervals.segment_tree import SegmentTree
from ..queries.query import Atom, Query, Variable, pvar
from ..hypergraph.transform import part_vertex
from .columnar import (
    CODE_DTYPE,
    COL_BITS,
    COL_CODE,
    COL_ID,
    CodeBook,
    ColumnBlock,
    ColumnarCounts,
    distinct_rows,
)

# variable name -> atom label -> 1-based permutation position
PositionMap = dict[str, dict[str, int]]


class DomainChanged(Exception):
    """A delta cannot be applied to an existing reduction — the segment
    trees' endpoint domains no longer describe the data (a new endpoint
    appeared) or the change is not tuple-level.  Callers must re-run the
    full forward reduction."""


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

    def schema(self, atom: Atom) -> list[str]:
        """The variant's columns: per interval variable its ``i`` part
        vertices, point variables in place, the provenance id last."""
        parts = dict(self.parts)
        schema: list[str] = []
        for v in atom.variables:
            if v.is_interval:
                for j in range(1, parts[v.name] + 1):
                    schema.append(part_vertex(v.name, j))
            else:
                schema.append(v.name)
        if self.provenance and parts:
            schema.append(f"__id_{atom.label}")
        return schema


@dataclass
class EncodedQuery:
    """One EJ disjunct with the position map that generated it."""

    query: Query
    positions: PositionMap


@dataclass(frozen=True)
class _VariantLayout:
    """Where each source column lands in a variant's code matrix
    (mirrors :meth:`_VariantSpec.schema`): per interval variable its
    ``i`` part columns, point columns in place, provenance id last."""

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
        kinds: list[str] = []
        bounds: list[int | None] = []
        slots = []
        point_cols = []
        for col, v in enumerate(atom.variables):
            if v.is_interval:
                i, tree = parts[v.name], trees[v.name]
                slots.append(
                    (len(kinds), i, tree, i == k[v.name], v.name in nonempty, col)
                )
                kinds.extend([COL_BITS] * i)
                bounds.extend([tree.id_bound] * i)
            else:
                point_cols.append((len(kinds), col))
                kinds.append(COL_CODE)
                bounds.append(None)
        prov_col = None
        if spec.provenance and parts:
            prov_col = len(kinds)
            kinds.append(COL_ID)
            bounds.append(None)
        return cls(
            len(kinds),
            tuple(kinds),
            tuple(bounds),
            tuple(slots),
            tuple(point_cols),
            prov_col,
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
            template[:, first : first + i] = arr[idx]
            tile *= s
        return template


@dataclass
class ForwardReductionResult:
    """Output of the full forward reduction (Theorem 4.13)."""

    original: Query
    encoded_queries: list[EncodedQuery]
    database: Database
    segment_trees: dict[str, SegmentTree] = field(default_factory=dict)
    #: atom label -> input tuples in provenance-id order: the tuple at
    #: index ``i`` is the one the reduction tagged ``__id_<label> = i``.
    #: Slots of tuples deleted by :meth:`apply_delta` hold ``None`` so
    #: surviving provenance ids stay stable.
    tuple_order: dict[str, list[tuple]] = field(default_factory=dict)
    #: atom label -> the transformed-relation variants built for it
    #: (every distinct :class:`_VariantSpec` across all disjuncts) —
    #: the patch metadata :meth:`apply_delta` walks.
    atom_variants: dict[str, tuple] = field(default_factory=dict)
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
    #: ``(address, delta-chain depth)`` of the persistent-cache entry
    #: that holds exactly this object's current content, or ``None`` —
    #: written by :class:`~repro.core.reduction_cache.ReductionCache`
    #: only, after a successful load or store
    stored_as: tuple[str, int] | None = field(
        default=None, compare=False, repr=False
    )

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

        The delta must be expressed over the *same database* this
        reduction was computed from (in particular, not over the G.1
        shifted copy the counting pipeline reduces: a shifted endpoint
        is a rank among *all* endpoints, so one new endpoint moves
        every tuple, and those artifacts are rebuilt, not patched).  For an **insert** whose interval
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
        ``remove``) or an insert with an endpoint outside a tree's
        domain.  A delta whose relation is not referenced by the query
        is a no-op.

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
        if not delta.is_tuple_level or delta.tuple is None:
            raise DomainChanged(
                f"{delta.kind!r} delta on {delta.relation!r} is not a "
                f"tuple-level change"
            )
        atoms = [
            a for a in self.original.atoms if a.relation == delta.relation
        ]
        t = delta.tuple
        for atom in atoms:
            if len(t) != len(atom.variables):
                raise DomainChanged(
                    f"tuple {t} does not match the arity of atom "
                    f"{atom.label}"
                )
        if delta.kind == "insert":
            for atom in atoms:
                for v, value in zip(atom.variables, t):
                    if v.is_interval and not self.segment_trees[
                        v.name
                    ].in_domain(value):
                        raise DomainChanged(
                            f"endpoint of {value} falls outside the "
                            f"[{v.name}] segment tree's endpoint domain"
                        )
        self._patch(atoms, t, inserting=delta.kind == "insert")

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
                        f"tuple {t} is unknown to this reduction's "
                        f"provenance order for atom {atom.label}"
                    ) from None
        for atom in atoms:
            for spec in self.atom_variants[atom.label]:
                counts = self.variant_counts.get(spec.name())
                if counts is None:
                    raise DomainChanged(
                        f"variant {spec.name()} has no derived-row refcounts"
                    )
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
        self.interval_vars = [v.name for v in query.interval_variables]
        self.k = atom_counts(query)
        self._tuple_order: dict[str, list[tuple]] = {}
        # (relation, column) -> (distinct values, each tuple's position)
        self._columns: dict[tuple[str, int], tuple[list, np.ndarray]] = {}
        self._point_codes: dict[tuple[str, int], np.ndarray] = {}
        # (relation, column, tree, i, leaf?, nonempty_last) -> encodings
        self._column_encodings: dict[tuple, tuple] = {}
        self._layouts: dict[_VariantSpec, _VariantLayout] = {}
        self.trees: dict[str, SegmentTree] = {}
        for x in self.interval_vars:
            endpoints: set = set()
            for atom in query.atoms_containing(x):
                idx = atom.variable_names.index(x)
                values, _ = self._column(atom.relation, idx)
                endpoints.update([v.left for v in values])
                endpoints.update([v.right for v in values])
            self.trees[x] = SegmentTree.from_endpoints(endpoints)
        self.codebook = CodeBook()
        self._variants: dict[_VariantSpec, Relation] = {}
        self._variant_counts: dict[str, ColumnarCounts] = {}
        self._atom_variants: dict[str, dict[_VariantSpec, None]] = {}

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
    # query-level transformation
    # ------------------------------------------------------------------

    def position_maps(self) -> Iterator[PositionMap]:
        """All combinations of per-variable atom permutations."""
        per_variable: list[list[tuple[str, dict[str, int]]]] = []
        for x in self.interval_vars:
            labels = [a.label for a in self.query.atoms_containing(x)]
            options = [
                (x, {label: i + 1 for i, label in enumerate(sigma)})
                for sigma in permutations(labels)
            ]
            per_variable.append(options)
        for combo in product(*per_variable):
            yield {x: positions for x, positions in combo}

    def encoded_atom(
        self, atom: Atom, positions: PositionMap
    ) -> tuple[tuple[Variable, ...], _VariantSpec]:
        """The EJ schema of ``atom`` under ``positions`` plus the variant
        spec identifying its transformed relation."""
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
            if self.disjoint and self._requires_nonempty(atom, v.name, positions):
                nonempty.append(v.name)
        spec = _VariantSpec(
            atom.label,
            tuple(sorted(parts)),
            tuple(sorted(nonempty)),
            self.provenance,
        )
        # remember every variant an atom is encoded with across all
        # disjuncts: the patch metadata apply_delta later walks
        self._atom_variants.setdefault(atom.label, {}).setdefault(spec)
        if self.provenance and parts:
            new_vars.append(pvar(f"__id_{atom.label}"))
        return tuple(new_vars), spec

    def _requires_nonempty(
        self, atom: Atom, x: str, positions: PositionMap
    ) -> bool:
        """Appendix G (Definition G.1): at position ``j`` with
        ``1 < j < k``, the part ``X_j`` must be non-empty when the label
        at position ``j-1`` exceeds this atom's label."""
        pos = positions[x]
        j = pos[atom.label]
        k = self.k[x]
        if j <= 1 or j >= k:
            return False
        previous = next(
            label for label, position in pos.items() if position == j - 1
        )
        return previous > atom.label

    def encode_query(self, positions: PositionMap, index: int) -> EncodedQuery:
        atoms: list[Atom] = []
        for atom in self.query.atoms:
            new_vars, spec = self.encoded_atom(atom, positions)
            atoms.append(Atom(atom.label, spec.name(), new_vars))
        query = Query(
            tuple(atoms), name=f"{self.query.name}~{index}"
        )
        return EncodedQuery(query, positions)

    # ------------------------------------------------------------------
    # database-level transformation (Definition 4.9)
    # ------------------------------------------------------------------

    def variant_relation(self, atom: Atom, spec: _VariantSpec) -> Relation:
        if spec in self._variants:
            return self._variants[spec]
        block, count_array = self._vectorized_counts(atom, spec)
        result = Relation.from_columns(spec.name(), spec.schema(atom), block)
        self._variants[spec] = result
        self._variant_counts[spec.name()] = ColumnarCounts(block, count_array)
        return result

    def _vectorized_counts(
        self, atom: Atom, spec: _VariantSpec
    ) -> tuple[ColumnBlock, np.ndarray]:
        """The variant builder, for a whole relation at once.  Per slot,
        the column's encoding is computed once however many variants of
        the atom ask, and one gather turns it into each tuple's option
        count and first option row.  The cartesian products of *all*
        tuples are laid out together: a derived row knows its source
        tuple (``np.repeat``) and its position within that tuple's
        product, whose mixed-radix digits (last slot fastest, the order
        of ``itertools.product``) pick one option row per slot from the
        column matrix.  Point codes and provenance ids are one gather
        by source tuple each, and ``distinct_rows`` deduplicates
        globally (distinct intervals can share a canonical partition)
        with the multiplicities as refcounts.  A tuple with an empty
        option list in a slot derives no row; a point-only atom is the
        degenerate case of one row per tuple.

        Bit-identical to a naive per-tuple loop: distinct canonical-
        partition nodes and distinct splits never concatenate to the
        same parts, so each input tuple adds at most one count to a
        row.  A single tuple (a delta patch) goes through
        :meth:`ForwardReductionResult.tuple_rows` instead.
        """
        layout = _VariantLayout.of(atom, spec, self.trees, self.k)
        self._layouts[spec] = layout
        relation = atom.relation
        n_src = len(self.relation_order(relation))
        options = []
        total = np.ones(n_src, dtype=np.int64)
        for first, i, tree, leaf, flag, col in layout.slots:
            values, index = self._column(relation, col)
            # the tree is part of the key: a self-join reads one column
            # under two variables
            key = (relation, col, tree, i, leaf, flag)
            if key not in self._column_encodings:
                self._column_encodings[key] = tree.column_encodings(
                    values, i, leaf, flag
                )
            matrix, starts, counts = self._column_encodings[key]
            options.append((first, i, matrix, starts[index], counts[index]))
            total *= counts[index]
        src = np.repeat(np.arange(n_src), total)
        rows = np.empty((src.size, layout.n_cols), dtype=CODE_DTYPE)
        within = np.arange(src.size) - np.repeat(np.cumsum(total) - total, total)
        for first, i, matrix, starts, counts in reversed(options):
            radix = counts[src]
            rows[:, first : first + i] = matrix[starts[src] + within % radix]
            within //= radix
        for out_col, col in layout.point_cols:
            rows[:, out_col] = self._codes(relation, col)[src]
        if layout.prov_col is not None:
            rows[:, layout.prov_col] = src
        unique_rows, counts = distinct_rows(rows)
        return (
            ColumnBlock(unique_rows, layout.kinds, self.codebook, layout.bounds),
            counts,
        )

    # ------------------------------------------------------------------
    # full reduction
    # ------------------------------------------------------------------

    def reduce(self) -> ForwardReductionResult:
        """Run Algorithm 1: all EJ disjuncts plus the shared database."""
        encoded: list[EncodedQuery] = []
        database = Database()
        seen: set[str] = set()
        for index, positions in enumerate(self.position_maps()):
            eq = self.encode_query(positions, index)
            encoded.append(eq)
            for atom, original in zip(eq.query.atoms, self.query.atoms):
                if atom.relation in seen:
                    continue
                seen.add(atom.relation)
                _, spec = self.encoded_atom(original, positions)
                database.add(self.variant_relation(original, spec))
        tuple_order = {
            atom.label: self.relation_order(atom.relation)
            for atom in self.query.atoms
        }
        atom_variants = {
            label: tuple(specs)
            for label, specs in self._atom_variants.items()
        }
        return ForwardReductionResult(
            self.query,
            encoded,
            database,
            dict(self.trees),
            tuple_order,
            atom_variants,
            self._variant_counts,
            self.codebook,
            self._layouts,
        )


def forward_reduce(
    query: Query,
    db: Database,
    disjoint: bool = False,
    provenance: bool = False,
) -> ForwardReductionResult:
    """Full forward reduction of an IJ/EIJ query and database."""
    return ForwardReducer(query, db, disjoint, provenance).reduce()
