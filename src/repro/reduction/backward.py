"""The backward reduction: EJ instances to IJ instances (Section 5,
Theorem 5.2, Appendix D).

Given an EJ query ``Q̃`` whose hypergraph lies in ``τ(H)`` — i.e. one of
the disjuncts the forward reduction would produce for the self-join-free
IJ query ``Q`` — and *any* database ``D̃`` over ``{0,1}^b``, it
constructs an interval database ``D`` with ``|D| = |D̃|`` such that
``Q(D) ⟺ Q̃(D̃)`` (Claim D.3).  Hence any lower bound for any disjunct
transfers to the IJ query: the forward reduction is optimal.

A ``b``-bit value is held as a node id (``(1 << b) | value``, see
:mod:`repro.intervals.bitstring`), so the concatenation
``x1 ∘ ... ∘ xi`` of an atom's ``X``-columns is a run of ``b``-bit left
shifts, and the atom's interval is that node's segment in the modified
perfect segment tree of Figure 7
(:func:`~repro.intervals.bitstring.perfect_tree_segment`).  Two such
segments intersect iff one node is an ancestor of the other.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Mapping

from ..engine.relation import Database, Relation
from ..intervals.bitstring import EMPTY, perfect_tree_segment
from ..queries.query import Query

# variable name -> atom label -> number of X-parts (permutation position)
PositionMap = Mapping[str, Mapping[str, int]]


def bitstring_encode_database(db: Database, width: int | None = None) -> Database:
    """Replace every value with the id of a fixed-width bitstring.

    The proof of Theorem 5.2 assumes w.l.o.g. that the EJ database's
    domain is ``{0,1}^b``; this helper realises the w.l.o.g.: distinct
    values, ranked in ``repr`` order, map to the ids ``(1 << b) | rank``
    of distinct ``b``-bit strings, preserving every equality join.
    """
    values: set = set()
    for relation in db:
        for t in relation.tuples:
            values.update(t)
    ordered = sorted(values, key=repr)
    b = width if width is not None else max(1, ceil(log2(max(len(ordered), 2))))
    if (1 << b) < len(ordered):
        raise ValueError(f"width {b} too small for {len(ordered)} values")
    code = {v: (1 << b) | i for i, v in enumerate(ordered)}
    out = Database()
    for relation in db:
        out.add(
            Relation(
                relation.name,
                relation.schema,
                {tuple(code[x] for x in t) for t in relation.tuples},
            )
        )
    return out


def backward_database(
    ij_query: Query,
    positions: PositionMap,
    ej_db: Database,
    relation_names: Mapping[str, str] | None = None,
) -> Database:
    """Construct the interval database of Definition D.2 (iterated over
    every interval variable).

    ``positions`` fixes, per interval variable, each atom's permutation
    position — identifying which disjunct ``Q̃`` is being reduced from.
    ``ej_db`` must hold the ids of fixed-width bitstrings (see
    :func:`bitstring_encode_database`); ``relation_names`` maps the IJ
    atom labels to the EJ relation names holding their tuples (defaults
    to the atom's own relation name).
    """
    if not ij_query.is_self_join_free:
        raise ValueError("the backward reduction assumes a self-join-free query")
    widths = {
        x.bit_length() - 1
        for relation in ej_db
        for t in relation.tuples
        for x in t
    }
    if len(widths) > 1:
        raise ValueError(f"mixed bitstring widths {widths}; encode first")
    b = widths.pop() if widths else 1
    total_depth = len(ij_query.atoms) * b
    top = 1 << b

    out = Database()
    for atom in ij_query.atoms:
        source_name = (
            relation_names[atom.label] if relation_names else atom.relation
        )
        source = ej_db[source_name]
        # EJ schema layout mirrors the forward encoding: each interval
        # variable [X] at position i expands to X1..Xi in place.
        expected: list[tuple[str, int]] = []  # (variable, parts)
        for v in atom.variables:
            if v.is_interval:
                expected.append((v.name, positions[v.name][atom.label]))
            else:
                expected.append((v.name, 0))
        arity = sum(parts if parts else 1 for _, parts in expected)
        if source.arity != arity:
            raise ValueError(
                f"{source_name}: arity {source.arity} does not match the "
                f"encoded schema (expected {arity})"
            )
        rows = set()
        for t in source.tuples:
            row: list = []
            cursor = 0
            for name, parts in expected:
                if parts == 0:
                    row.append(t[cursor])
                    cursor += 1
                    continue
                node = EMPTY
                for x in t[cursor:cursor + parts]:
                    node = (node << b) | (x - top)
                cursor += parts
                row.append(perfect_tree_segment(node, total_depth))
            rows.add(tuple(row))
        out.add(Relation(atom.relation, atom.variable_names, rows))
    return out


def backward_reduce(
    ij_query: Query,
    positions: PositionMap,
    ej_db: Database,
    relation_names: Mapping[str, str] | None = None,
) -> Database:
    """Encode values as bitstring ids, then build the interval database."""
    encoded = bitstring_encode_database(ej_db)
    return backward_database(ij_query, positions, encoded, relation_names)
