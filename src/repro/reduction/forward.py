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

The batch loop is **encoding-memoized and columnar**.  A node is an
integer from the tree to the matrix (:mod:`repro.intervals.bitstring`):
each variable's :class:`~repro.intervals.segment_tree.SegmentTree`
serves the encodings of one ``(value, position)`` as a matrix of part
ids, computed once (:meth:`~repro.intervals.segment_tree.SegmentTree.encodings`),
and :meth:`ForwardReducer.variant_relation` groups a relation's tuples
by their interval-column projection, running the cartesian expansion
once per distinct projection group, on ``uint32`` arrays, instead of
once per tuple.  Part ids are written into the matrix verbatim
(``bits`` columns), point values through the artifact's one codebook,
provenance ids verbatim.  That is the only builder; the differential
digest tests pin its decoded output, bit for bit, to a naive per-tuple
loop on bitstrings kept under ``tests/oracles``.

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
    COUNT_DTYPE,
    CodeBook,
    ColumnBlock,
    ColumnarCounts,
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


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)``, faster.

    ``axis=0`` uniqueness argsorts a void view of the matrix — byte-wise
    row comparisons dominate the whole vectorized build.  Our rows are
    narrow matrices of small codes, so almost always each row packs
    into one ``uint64`` under a mixed radix of per-column value ranges;
    deduplicating the packed scalars sorts one machine word per row
    instead.  Packing most-significant-column-first makes the scalar
    order *equal* to the lexicographic row order, so the output is
    bit-identical to the ``axis=0`` call (which remains the fallback
    for the astronomically wide/deep case that overflows 64 bits).
    """
    n, n_cols = rows.shape
    if n == 0 or n_cols == 0:
        return np.unique(rows, axis=0, return_inverse=True)
    radices = rows.max(axis=0).astype(np.uint64) + 1
    capacity = 1
    for r in radices:
        capacity *= int(r)
        if capacity > 0xFFFF_FFFF_FFFF_FFFF:
            return np.unique(rows, axis=0, return_inverse=True)
    keys = rows[:, 0].astype(np.uint64)
    for j in range(1, n_cols):
        keys *= radices[j]
        keys += rows[:, j]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


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
        """The cartesian product of the part encodings of one tuple's
        interval ``values`` (one per slot) as an ``(n_options, n_cols)``
        matrix, in the order ``itertools.product`` enumerates it, laid
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
        patched artifact re-persists as raw blobs and evaluates as it
        did before.
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
        layout = _VariantLayout.of(
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

    One builder: ``uint32`` code matrices expanded with
    ``np.repeat``/``np.tile`` and ``int64`` refcount arrays
    (:meth:`_vectorized_counts`), all over :attr:`trees` and the one
    :attr:`codebook`.
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
        self.trees: dict[str, SegmentTree] = {}
        for x in self.interval_vars:
            endpoints: set = set()
            for atom in query.atoms_containing(x):
                idx = atom.variable_names.index(x)
                for t in db[atom.relation].tuples:
                    endpoints.add(t[idx].left)
                    endpoints.add(t[idx].right)
            self.trees[x] = SegmentTree.from_endpoints(endpoints)
        self.codebook = CodeBook()
        self._variants: dict[_VariantSpec, Relation] = {}
        self._variant_counts: dict[str, ColumnarCounts] = {}
        self._atom_variants: dict[str, dict[_VariantSpec, None]] = {}
        self._tuple_order: dict[str, list[tuple]] = {}

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
        block, count_array = self._vectorized_counts(
            atom, spec, self.relation_order(atom.relation)
        )
        result = Relation.from_columns(spec.name(), spec.schema(atom), block)
        self._variants[spec] = result
        self._variant_counts[spec.name()] = ColumnarCounts(block, count_array)
        return result

    def _vectorized_counts(
        self,
        atom: Atom,
        spec: _VariantSpec,
        order: Sequence[tuple],
    ) -> tuple[ColumnBlock, np.ndarray]:
        """The variant builder: group the relation's tuples by their
        interval-column projection and expand the cartesian product of
        part encodings **once per distinct projection group**, as array
        ops on ``uint32`` codes.  Per group, the product is laid out
        with mixed-radix ``np.repeat``/``np.tile`` index arrays, member
        point columns and provenance ids are broadcast across the
        templates, and the per-group matrices are deduplicated globally
        with ``np.unique(axis=0)`` — whose inverse bin-counts are the
        refcounts (two groups can derive equal rows when distinct
        intervals share a canonical partition, so dedup must be
        global).  A point-only atom is the degenerate case: one group,
        one template row, the source tuples copied in code form.

        Bit-identical to a naive per-tuple loop: distinct canonical-
        partition nodes and distinct splits never concatenate to the
        same parts, so within one input tuple distinct template
        combinations never collide and each (member, template) pair
        contributes exactly one count to its row.
        """
        book = self.codebook
        layout = _VariantLayout.of(atom, spec, self.trees, self.k)
        point_cols, prov_col = layout.point_cols, layout.prov_col
        interval_tuple_cols = [col for *_, col in layout.slots]
        member_dep = bool(point_cols) or prov_col is not None
        n_src = len(order)
        pt_codes: dict[int, np.ndarray] = {
            col: book.encode_column((t[col] for t in order), count=n_src)
            for _, col in point_cols
        }
        groups: dict[tuple, list[int]] = {}
        for tuple_id, t in enumerate(order):
            key = tuple(t[c] for c in interval_tuple_cols)
            groups.setdefault(key, []).append(tuple_id)
        blocks: list[np.ndarray] = []
        weight_scalars: list[int] = []
        for projection, members in groups.items():
            template = layout.template(projection)
            total = template.shape[0]
            if total == 0:
                continue  # an empty option list empties the product
            if member_dep:
                m = len(members)
                members_arr = np.asarray(members, dtype=np.int64)
                rows_g = np.tile(template, (m, 1))
                for out_col, col in point_cols:
                    rows_g[:, out_col] = np.repeat(
                        pt_codes[col][members_arr], total
                    )
                if prov_col is not None:
                    rows_g[:, prov_col] = np.repeat(
                        members_arr.astype(CODE_DTYPE), total
                    )
                blocks.append(rows_g)
                weight_scalars.append(1)
            else:
                # interval-only, no provenance: every member derives the
                # very same template rows — one weighted block per group
                blocks.append(template)
                weight_scalars.append(len(members))
        if not blocks:
            blocks.append(np.empty((0, layout.n_cols), dtype=CODE_DTYPE))
            weight_scalars.append(0)
        all_rows = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        weights = np.concatenate(
            [
                np.full(b.shape[0], w, dtype=COUNT_DTYPE)
                for b, w in zip(blocks, weight_scalars)
            ]
        )
        unique_rows, inverse = _unique_rows(all_rows)
        # float64 bincount sums are exact here (counts stay far below
        # 2**53); cast straight back to the integer refcount dtype
        counts = np.bincount(
            inverse.ravel(), weights=weights, minlength=unique_rows.shape[0]
        ).astype(COUNT_DTYPE)
        return (
            ColumnBlock(unique_rows, layout.kinds, book, layout.bounds),
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
        )


def forward_reduce(
    query: Query,
    db: Database,
    disjoint: bool = False,
    provenance: bool = False,
) -> ForwardReductionResult:
    """Full forward reduction of an IJ/EIJ query and database."""
    return ForwardReducer(query, db, disjoint, provenance).reduce()
