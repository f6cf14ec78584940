"""The forward reduction one input tuple at a time: the oracle for
:class:`repro.reduction.forward.ForwardReducer`'s array builder and for
:meth:`~repro.reduction.forward.ForwardReductionResult.apply_delta`.

The query-level half of Algorithm 1 (position maps, encoded atoms,
variant specs) is shared with production; everything *database*-level is
redone here the slow way and on the paper's own vocabulary — every
tuple re-walks its segment trees and re-enumerates its splits as
bitstrings (no encoding memo, no node ids), rows are Python tuples in
sets, refcounts a ``dict`` — so a result from :func:`naive_forward_reduce`
is row-backed throughout and digests
(:func:`repro.core.reduction_cache.result_digest`) equal to the array
builder's exactly when the two are bit-identical.  Deltas are applied
to such a result by :func:`apply_delta_rows`.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, MutableMapping, Sequence

from repro.engine.relation import Database, Delta, Relation
from repro.intervals.bitstring import splits
from repro.intervals.interval import Interval
from repro.intervals.segment_tree import SegmentTree
from repro.queries.query import Atom, Query
from repro.reduction.forward import (
    DomainChanged,
    ForwardReducer,
    ForwardReductionResult,
    _VariantSpec,
)


def interval_encodings(
    tree: SegmentTree, k: int, value: Interval, i: int, nonempty_last: bool
) -> list[tuple[str, ...]]:
    """All ``(X1..Xi)`` bitstring tuples for one interval value against
    one segment tree: CP-variant splits for ``i < k``, leaf-variant
    splits for ``i = k`` (Definition 4.9), with the Appendix G
    non-emptiness constraint applied when requested."""
    if i < k:
        nodes = tree.canonical_partition(value)
    else:
        nodes = [tree.leaf_of_interval(value)]
    out: list[tuple[str, ...]] = []
    for node in nodes:
        for split in splits(node, i):
            if nonempty_last and i > 1 and split[-1] == "":
                continue
            out.append(split)
    return out


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
    encodings: list[Sequence[tuple[str, ...]]] = []
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
        if spec in self._variants:
            return self._variants[spec]
        counts: dict[tuple, int] = {}
        for tuple_id, t in enumerate(self.relation_order(atom.relation)):
            for row in transform_tuple(
                atom, spec, t, self.trees, self.k, tuple_id
            ):
                counts[row] = counts.get(row, 0) + 1
        result = Relation(spec.name(), spec.schema(atom), set(counts))
        self._variants[spec] = result
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
        raise DomainChanged(f"{delta.kind!r} is not a tuple-level change")
    atoms = [a for a in result.original.atoms if a.relation == delta.relation]
    t = delta.tuple
    inserting = delta.kind == "insert"
    k = {
        v.name: len(result.original.atoms_containing(v.name))
        for v in result.original.interval_variables
    }
    for atom in atoms:
        if len(t) != len(atom.variables):
            raise DomainChanged(f"tuple {t} does not match atom {atom.label}")
        if inserting:
            for v, value in zip(atom.variables, t):
                if v.is_interval and not result.segment_trees[
                    v.name
                ].in_domain(value):
                    raise DomainChanged(f"{value} is outside [{v.name}]'s domain")
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
            raise DomainChanged(f"tuple {t} is unknown to atom {atom.label}")
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
