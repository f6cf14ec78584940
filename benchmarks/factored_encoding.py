"""The space-efficient factored encoding (Section 1.1, closing remark).

Instead of materialising, per atom, the cross product of all its
interval variables' encodings (``R̃(A1, A2, B1, B2)`` — size
``O(N log² N)`` for the triangle and ``m^k`` variants per atom in
general), the paper's alternative encoding decomposes losslessly by
tuple identifier::

    R̃_A(Id, A1, A2)   R̃_B(Id, B1, B2)   R̃_0(Id, point columns)

One relation per (atom, interval variable) position — ``m`` relations
per m-way variable — each of size ``O(N log N)`` for 2-way variables,
avoiding the per-atom multiplicative blowup.  Data complexity is the
same modulo log factors; space is strictly better.

This is the **ablation**, not the product's encoding, and lives beside
the benchmark that measures it (``bench_encoding_ablation.py``): it wins
size and build time but loses end to end, because the Id variable ties
an atom's factor relations into cycles, so an ι-acyclic query's
disjuncts stop being α-acyclic (measured at n = 60 in ROADMAP 6(a):
``fig9f`` evaluate 0.5 → 186 ms, triangle 3.2 → 43 ms), and its
artifacts can be neither patched nor cached.  It is built on the
production reducer's trees and codebook, Appendix-G disjoint variant
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.disjunct_eval import count_disjunction, evaluate_disjunction
from repro.engine.relation import Database, Relation
from repro.hypergraph.transform import part_vertex
from repro.queries.query import Atom, Query, pvar
from repro.reduction.columnar import (
    CODE_DTYPE,
    COL_BITS,
    COL_CODE,
    COL_ID,
    ColumnBlock,
    encode_rows,
)
from repro.reduction.disjoint import shift_distinct_left
from repro.reduction.forward import (
    EncodedQuery,
    ForwardReducer,
    ForwardReductionResult,
    PositionMap,
    position_maps,
    requires_nonempty,
)


def id_variable(atom_label: str) -> str:
    """The per-atom tuple-identifier variable name."""
    return f"__id_{atom_label}"


@dataclass(frozen=True)
class _FactorSpec:
    """One factored relation: the ``i``-part encoding of one interval
    variable of one atom (plus the OT non-emptiness flag)."""

    atom_label: str
    variable: str
    parts: int
    nonempty_last: bool

    def name(self) -> str:
        suffix = "x" if self.nonempty_last else ""
        return f"{self.atom_label}:{self.variable}{self.parts}{suffix}"


class FactoredForwardReducer(ForwardReducer):
    """Forward reduction with the lossless Id-decomposition encoding.

    Shares the segment trees of the base reducer, so every
    ``(value, i)`` encoding is computed once across all factored
    relations, and every relation is a code matrix over the reducer's
    codebook (Id and part columns verbatim).
    """

    def __init__(self, query: Query, db: Database, disjoint: bool = False):
        # provenance is inherent to this encoding (the Id columns)
        super().__init__(query, db, disjoint=disjoint, provenance=False)
        self._factor_cache: dict[_FactorSpec, Relation] = {}
        self._base_cache: dict[str, Relation] = {}
        self._tuple_order: dict[str, list[tuple]] = {
            atom.label: sorted(db[atom.relation].tuples, key=repr)
            for atom in query.atoms
        }

    # ------------------------------------------------------------------
    # encoded queries
    # ------------------------------------------------------------------

    def encode_query_factored(
        self, positions: PositionMap, index: int
    ) -> EncodedQuery:
        atoms: list[Atom] = []
        for atom in self.query.atoms:
            interval_vars = [v for v in atom.variables if v.is_interval]
            if not interval_vars:
                atoms.append(atom)
                continue
            id_var = pvar(id_variable(atom.label))
            base_schema = [id_var] + [
                v for v in atom.variables if not v.is_interval
            ]
            atoms.append(
                Atom(
                    f"{atom.label}.base",
                    self._base_name(atom),
                    tuple(base_schema),
                )
            )
            for v in interval_vars:
                i = positions[v.name][atom.label]
                nonempty = self.disjoint and requires_nonempty(
                    atom, v.name, positions
                )
                spec = _FactorSpec(atom.label, v.name, i, nonempty)
                schema = [id_var] + [
                    pvar(part_vertex(v.name, j)) for j in range(1, i + 1)
                ]
                atoms.append(
                    Atom(
                        f"{atom.label}.{v.name}",
                        spec.name(),
                        tuple(schema),
                    )
                )
        query = Query(tuple(atoms), name=f"{self.query.name}#f{index}")
        return EncodedQuery(query, positions)

    # ------------------------------------------------------------------
    # factored relations
    # ------------------------------------------------------------------

    def _base_name(self, atom: Atom) -> str:
        return f"{atom.label}:base"

    def base_relation(self, atom: Atom) -> Relation:
        cached = self._base_cache.get(atom.label)
        if cached is not None:
            return cached
        point_positions = [
            (idx, v)
            for idx, v in enumerate(atom.variables)
            if not v.is_interval
        ]
        schema = [id_variable(atom.label)] + [
            v.name for _, v in point_positions
        ]
        rows = [
            (tuple_id, *[t[idx] for idx, _ in point_positions])
            for tuple_id, t in enumerate(self._tuple_order[atom.label])
        ]
        relation = self._coded(self._base_name(atom), schema, rows, ids=True)
        self._base_cache[atom.label] = relation
        return relation

    def factor_relation(self, atom: Atom, spec: _FactorSpec) -> Relation:
        cached = self._factor_cache.get(spec)
        if cached is not None:
            return cached
        var_idx = atom.variable_names.index(spec.variable)
        schema = [id_variable(atom.label)] + [
            part_vertex(spec.variable, j) for j in range(1, spec.parts + 1)
        ]
        tree = self.trees[spec.variable]
        leaf = spec.parts == self.k[spec.variable]
        order = self._tuple_order[atom.label]
        encodings = [
            tree.encodings(t[var_idx], spec.parts, leaf, spec.nonempty_last)
            for t in order
        ]
        # a tuple's encodings are distinct and carry its id: no dedup
        codes = np.empty(
            (sum(len(m) for m in encodings), 1 + spec.parts), dtype=CODE_DTYPE
        )
        codes[:, 0] = np.repeat(
            np.arange(len(order)), [len(m) for m in encodings]
        )
        codes[:, 1:] = np.concatenate(
            encodings or [np.empty((0, spec.parts), dtype=CODE_DTYPE)]
        )
        block = ColumnBlock(
            codes,
            [COL_ID] + [COL_BITS] * spec.parts,
            self.codebook,
            [None] + [tree.id_bound] * spec.parts,
        )
        relation = Relation.from_columns(spec.name(), schema, block)
        self._factor_cache[spec] = relation
        return relation

    def _coded(self, name: str, schema, rows, ids: bool) -> Relation:
        """``rows`` as a block-backed relation over the reducer's
        codebook; with ``ids`` the first column is a verbatim tuple
        id."""
        kinds = [COL_CODE] * len(schema)
        if ids:
            kinds[0] = COL_ID
        return Relation.from_columns(
            name, schema, encode_rows(rows, kinds, self.codebook)
        )

    # ------------------------------------------------------------------
    # full reduction
    # ------------------------------------------------------------------

    def reduce(self) -> ForwardReductionResult:
        encoded: list[EncodedQuery] = []
        database = Database()
        seen: set[str] = set()
        for index, positions in enumerate(position_maps(self.query)):
            eq = self.encode_query_factored(positions, index)
            encoded.append(eq)
            for atom in self.query.atoms:
                interval_vars = [
                    v for v in atom.variables if v.is_interval
                ]
                if not interval_vars:
                    if atom.relation not in seen:
                        seen.add(atom.relation)
                        source = self.db[atom.relation]
                        database.add(
                            self._coded(
                                atom.relation,
                                source.schema,
                                source.tuples,
                                ids=False,
                            )
                        )
                    continue
                base = self.base_relation(atom)
                if base.name not in seen:
                    seen.add(base.name)
                    database.add(base)
                for v in interval_vars:
                    i = positions[v.name][atom.label]
                    nonempty = self.disjoint and requires_nonempty(
                        atom, v.name, positions
                    )
                    spec = _FactorSpec(atom.label, v.name, i, nonempty)
                    if spec.name() not in seen:
                        seen.add(spec.name())
                        database.add(self.factor_relation(atom, spec))
        return ForwardReductionResult(
            self.query, encoded, database, dict(self.trees),
            codebook=self.codebook,
        )


def forward_reduce_factored(
    query: Query,
    db: Database,
    disjoint: bool = False,
) -> ForwardReductionResult:
    """Full forward reduction with the factored (Id) encoding."""
    return FactoredForwardReducer(query, db, disjoint=disjoint).reduce()


def count_ij_factored(query: Query, db: Database) -> int:
    """Exact witness count through the factored encoding (the Id columns
    double as provenance, so no extra columns are needed)."""
    shifted = shift_distinct_left(query, db)
    result = forward_reduce_factored(query, shifted, disjoint=True)
    return count_disjunction(result)


def evaluate_ij_factored(query: Query, db: Database) -> bool:
    """Boolean IJ evaluation through the factored encoding, via the
    shared rank-and-short-circuit path of
    :mod:`repro.core.disjunct_eval`."""
    result = forward_reduce_factored(query, db)
    return evaluate_disjunction(result)
