"""The forward reduction one input tuple at a time: the oracle for
:class:`repro.reduction.forward.ForwardReducer`'s array builder and for
:meth:`~repro.reduction.forward.ForwardReductionResult.apply_delta`.

The query-level half of Algorithm 1 (position maps, encoded atoms,
variant specs) is shared with production; everything *database*-level is
redone here the slow way and on the paper's own vocabulary — every
tuple reads its canonical partition or leaf off the literal tree of
Section 3 (:mod:`oracles.segment_tree`, built from the production
tree's endpoint list and nothing else of it) and re-enumerates the
splits of those bitstrings (:func:`splits`, no encoding memo); only the
finished parts are written as node ids (``node_id``), the cells
production's rows decode to.  Rows are Python tuples in sets, refcounts
a ``dict`` — so a result from :func:`naive_forward_reduce` is
row-backed throughout and digests
(:func:`repro.core.reduction_cache.result_digest`) equal to the array
builder's exactly when the two are bit-identical.  Deltas are applied
to such a result by :func:`apply_delta_rows`.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterator, Mapping, MutableMapping, Sequence

from repro.engine.relation import Database, Delta, Relation
from repro.intervals.bitstring import node_id
from repro.intervals.interval import Interval
from repro.intervals.segment_tree import SegmentTree
from repro.queries.query import Atom, Query
from repro.reduction.forward import (
    DomainChanged,
    ForwardReducer,
    ForwardReductionResult,
    _VariantSpec,
)

from .segment_tree import canonical_partition, leaf_of_point, literal_tree


def splits(u: str, parts: int) -> Iterator[tuple[str, ...]]:
    """All tuples ``(x_1, ..., x_parts)`` with ``x_1 ∘ ... ∘ x_parts = u``
    — the set ``𝔉(u, parts)`` of Claim C.1.

    Parts may be empty (the reduction relies on empty parts when two
    intervals share a segment-tree node).  For a string of length ``L``
    there are ``C(L + parts - 1, parts - 1)`` splits, which is
    ``O(log^(parts-1) |I|)`` for segment-tree bitstrings.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    length = len(u)
    for cuts in combinations_with_replacement(range(length + 1), parts - 1):
        bounds = (0, *cuts, length)
        yield tuple(u[bounds[i]:bounds[i + 1]] for i in range(parts))


def interval_encodings(
    tree: SegmentTree, k: int, value: Interval, i: int, nonempty_last: bool
) -> list[tuple[int, ...]]:
    """All ``(X1..Xi)`` part-id tuples for one interval value against
    the literal tree over ``tree``'s endpoints: CP-variant splits for
    ``i < k``, leaf-variant splits for ``i = k`` (Definition 4.9), with
    the Appendix G non-emptiness constraint applied when requested."""
    nodes = literal_tree(tree.endpoints)
    if i < k:
        cover = canonical_partition(nodes, value.left, value.right)
    else:
        cover = [leaf_of_point(nodes, value.left)]
    return [
        tuple(map(node_id, split))
        for node in cover
        for split in splits(node, i)
        if not (nonempty_last and i > 1 and split[-1] == "")
    ]


def transform_tuple(
    atom: Atom,
    spec: _VariantSpec,
    t: tuple,
    trees: Mapping[str, SegmentTree],
    k: Mapping[str, int],
    tuple_id: int | None = None,
) -> set[tuple]:
    """The rows one input tuple contributes to one transformed relation
    variant (the per-tuple body of Definition 4.9).

    Distinct canonical-partition nodes and distinct splits never
    concatenate to the same parts, so the returned rows are exactly the
    tuple's derived rows with no within-tuple multiplicity.
    """
    parts = dict(spec.parts)
    nonempty = set(spec.nonempty_last)
    encodings: list[Sequence[tuple[int, ...]]] = []
    fixed: list = []
    order: list[tuple[str, int]] = []  # (kind, payload index)
    for v, value in zip(atom.variables, t):
        if v.is_interval:
            encodings.append(
                interval_encodings(
                    trees[v.name],
                    k[v.name],
                    value,
                    parts[v.name],
                    v.name in nonempty,
                )
            )
            order.append(("interval", len(encodings) - 1))
        else:
            fixed.append(value)
            order.append(("point", len(fixed) - 1))
    rows: set[tuple] = set()
    for choice in product(*encodings):
        row: list = []
        for kind, idx in order:
            if kind == "interval":
                row.extend(choice[idx])
            else:
                row.append(fixed[idx])
        if spec.provenance and parts:
            row.append(tuple_id)
        rows.add(tuple(row))
    return rows


class NaiveForwardReducer(ForwardReducer):
    """:class:`ForwardReducer` with the variant builder replaced by the
    per-tuple loop: row-backed relations, ``dict`` refcounts."""

    def variant_relation(self, atom: Atom, spec: _VariantSpec) -> Relation:
        counts: dict[tuple, int] = {}
        for tuple_id, t in enumerate(self.relation_order(atom.relation)):
            for row in transform_tuple(
                atom, spec, t, self.trees, self.k, tuple_id
            ):
                counts[row] = counts.get(row, 0) + 1
        result = Relation(spec.name(), spec.schema(atom), set(counts))
        self._variant_counts[spec.name()] = counts
        return result


def naive_forward_reduce(
    query: Query,
    db: Database,
    disjoint: bool = False,
    provenance: bool = False,
) -> ForwardReductionResult:
    """Full forward reduction through the per-tuple loop."""
    return NaiveForwardReducer(query, db, disjoint, provenance).reduce()


def patch_rows(
    tuples: set[tuple],
    counts: MutableMapping[tuple, int],
    rows: set[tuple],
    inserting: bool,
) -> None:
    """Patch one row-backed variant: its Python tuple set and its
    ``dict`` refcounts."""
    if inserting:
        for row in rows:
            count = counts.get(row, 0) + 1
            counts[row] = count
            if count == 1:
                tuples.add(row)
    else:
        for row in rows:
            count = counts.get(row, 0) - 1
            if count <= 0:
                counts.pop(row, None)
                tuples.discard(row)
            else:
                counts[row] = count


def apply_delta_rows(result: ForwardReductionResult, delta: Delta) -> None:
    """:meth:`ForwardReductionResult.apply_delta` for a row-backed
    result of :func:`naive_forward_reduce`: same contract (no-op off the
    query's relations, :class:`DomainChanged` for whole-relation deltas,
    out-of-domain inserts and unknown deletes), rows derived by
    :func:`transform_tuple` and patched by :func:`patch_rows`."""
    if delta.relation not in result.source_relations:
        return
    if not delta.is_tuple_level or delta.tuple is None:
        raise DomainChanged(
            "not_tuple_level", f"{delta.kind!r} is not a tuple-level change"
        )
    atoms = [a for a in result.original.atoms if a.relation == delta.relation]
    t = delta.tuple
    inserting = delta.kind == "insert"
    k = {
        v.name: len(result.original.atoms_containing(v.name))
        for v in result.original.interval_variables
    }
    for atom in atoms:
        if len(t) != len(atom.variables):
            raise DomainChanged(
                "arity", f"tuple {t} does not match atom {atom.label}"
            )
        if inserting:
            for v, value in zip(atom.variables, t):
                if v.is_interval and not result.segment_trees[
                    v.name
                ].in_domain(value):
                    raise DomainChanged(
                        "new_endpoint", f"{value} is outside [{v.name}]'s domain"
                    )
    # provenance ids: order lists are shared between self-join atoms of
    # one relation, so each underlying list changes exactly once
    orders = {
        id(order): order
        for order in (result.tuple_order[atom.label] for atom in atoms)
    }
    if inserting:
        for order in orders.values():
            order.append(t)
    ids = {}
    for atom in atoms:
        order = result.tuple_order[atom.label]
        if t not in order:
            raise DomainChanged(
                "unknown_tuple", f"tuple {t} is unknown to atom {atom.label}"
            )
        ids[atom.label] = len(order) - 1 if inserting else order.index(t)
    for atom in atoms:
        for spec in result.atom_variants[atom.label]:
            name = spec.name()
            patch_rows(
                result.database[name].tuples,
                result.variant_counts[name],
                transform_tuple(
                    atom, spec, t, result.segment_trees, k, ids[atom.label]
                ),
                inserting,
            )
    if not inserting:
        for order in orders.values():
            order[order.index(t)] = None
