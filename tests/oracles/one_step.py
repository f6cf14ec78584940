"""The one-step forward reduction (Section 4.2, Definitions 4.5-4.9):
the literal Algorithm 1 that ``forward_reduce`` is checked against.

Resolves a *single* interval variable ``[X]``, producing the disjunction
``Q̃_[X] = ⋁_σ Q̃_([X],σ)`` of EIJ queries (intersection joins may
remain on other variables) and the database ``D̃_[X]``.  Lemma 4.11:
``Q(D)`` iff some disjunct holds on the transformed database.

Iterating this step over every interval variable is exactly
Algorithm 1 (:func:`iterate_one_step`); :mod:`repro.reduction.forward`
implements that full loop directly with shared variants.  Its relations
hold the same cells as ``forward_reduce``'s: each part is a
segment-tree node id (:mod:`repro.intervals.bitstring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.engine.relation import Database, Relation
from repro.hypergraph.transform import part_vertex
from repro.intervals.bitstring import split_ids
from repro.intervals.interval import Interval
from repro.intervals.segment_tree import SegmentTree
from repro.queries.query import Atom, Query, pvar


@dataclass
class OneStepResult:
    """Output of resolving one interval variable (Definitions 4.7/4.9)."""

    original: Query
    variable: str
    queries: list[Query]                # one EIJ disjunct per permutation
    permutations: list[tuple[str, ...]]  # atom labels in sigma order
    database: Database
    segment_tree: SegmentTree


def one_step_forward(query: Query, db: Database, variable: str) -> OneStepResult:
    """Resolve ``[variable]`` in ``query`` over ``db``.

    The transformed database holds, per atom containing the variable
    and per position ``i``, the relation with ``X1..Xi`` node-id
    columns in place of the interval column; atoms not containing the
    variable keep their original relations.
    """
    containing = query.atoms_containing(variable)
    if not containing:
        raise ValueError(f"variable {variable} not in query {query.name}")
    target = next(
        v for a in containing for v in a.variables if v.name == variable
    )
    if not target.is_interval:
        raise ValueError(f"{variable} is a point variable")
    k = len(containing)

    intervals: list[Interval] = []
    for atom in containing:
        idx = atom.variable_names.index(variable)
        intervals.extend(t[idx] for t in db[atom.relation].tuples)
    tree = SegmentTree(intervals)

    database = Database()
    for atom in query.atoms:
        if atom not in containing:
            source = db[atom.relation]
            if atom.relation not in database:
                database.add(
                    Relation(atom.relation, source.schema, source.tuples)
                )
    variant_names: dict[tuple[str, int], str] = {}
    for atom in containing:
        for i in range(1, k + 1):
            name = f"{atom.label}@{variable}{i}"
            variant_names[(atom.label, i)] = name
            database.add(
                _variant(atom, db[atom.relation], variable, i, k, tree, name)
            )

    queries: list[Query] = []
    sigmas: list[tuple[str, ...]] = []
    for sigma in permutations([a.label for a in containing]):
        atoms: list[Atom] = []
        for atom in query.atoms:
            if atom not in containing:
                atoms.append(atom)
                continue
            i = sigma.index(atom.label) + 1
            new_vars = []
            for v in atom.variables:
                if v.name == variable:
                    new_vars.extend(
                        pvar(part_vertex(variable, j))
                        for j in range(1, i + 1)
                    )
                else:
                    new_vars.append(v)
            atoms.append(
                Atom(atom.label, variant_names[(atom.label, i)], tuple(new_vars))
            )
        queries.append(
            Query(
                tuple(atoms),
                name=f"{query.name}[{variable};{','.join(sigma)}]",
            )
        )
        sigmas.append(sigma)
    return OneStepResult(query, variable, queries, sigmas, database, tree)


def _variant(
    atom: Atom,
    relation: Relation,
    variable: str,
    i: int,
    k: int,
    tree: SegmentTree,
    name: str,
) -> Relation:
    """Definition 4.9 for a single variable: CP encodings for ``i < k``,
    leaf encodings for ``i = k``; all other columns copied verbatim."""
    var_idx = atom.variable_names.index(variable)
    schema: list[str] = []
    for v in atom.variables:
        if v.name == variable:
            schema.extend(part_vertex(variable, j) for j in range(1, i + 1))
        else:
            schema.append(v.name)
    rows: set[tuple] = set()
    for t in relation.tuples:
        value = t[var_idx]
        nodes = tree.cp_ids(value) if i < k else [tree.leaf_id(value.left)]
        encodings = [
            split for node in nodes for split in split_ids(node, i).tolist()
        ]
        for split in encodings:
            row: list = []
            for idx, v in enumerate(atom.variables):
                if v.name == variable:
                    row.extend(split)
                else:
                    row.append(t[idx])
            rows.add(tuple(row))
    return Relation(name, schema, rows)


def iterate_one_step(query: Query, db: Database) -> list[tuple[Query, Database]]:
    """Run Algorithm 1 literally: resolve interval variables one at a
    time, carrying the full disjunction forward.

    Returns the final list of (EJ query, shared database) pairs.  This
    is exponentially more explicit than ``forward_reduce`` (no variant
    sharing across disjunct prefixes) and exists to validate the
    iterative correctness proof (Theorem 4.13) directly.
    """
    current: list[tuple[Query, Database]] = [(query, db)]
    variables = [v.name for v in query.interval_variables]
    for x in variables:
        nxt: list[tuple[Query, Database]] = []
        for partial_query, partial_db in current:
            step = one_step_forward(partial_query, partial_db, x)
            for disjunct in step.queries:
                nxt.append((disjunct, step.database))
        current = nxt
    return current

