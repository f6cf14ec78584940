"""Reference isomorphism tests for the canonical labelling.

:func:`reference_key` is the exhaustive search: atoms are bucketed by
``(relation, arity, interval pattern)`` — an isomorphism invariant — and
every order that keeps each bucket in place is serialized with variables
numbered by first occurrence; the least serialization is the key.  Two
queries get the same reference key exactly when one maps onto the other
by renaming variables and reordering atoms, keeping each atom's relation
and argument positions.  It is factorial in the bucket sizes: use it on
small queries only.

:func:`reference_isomorphic` is VF2 on the incidence graphs of two plain
hypergraphs, respecting the vertex/edge bipartition.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Sequence

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from repro.hypergraph import Hypergraph
from repro.queries import Atom, Query


def _signature(atom: Atom) -> tuple:
    return (
        atom.relation,
        len(atom.variables),
        tuple(v.is_interval for v in atom.variables),
    )


def _serialize(order: Sequence[Atom]) -> tuple:
    var_ids: dict[str, int] = {}
    return tuple(
        (
            atom.relation,
            tuple(
                (var_ids.setdefault(v.name, len(var_ids)), v.is_interval)
                for v in atom.variables
            ),
        )
        for atom in order
    )


def reference_key(query: Query) -> tuple:
    """The least serialization over every bucket-preserving atom order."""
    buckets: dict[tuple, list[Atom]] = {}
    for atom in query.atoms:
        buckets.setdefault(_signature(atom), []).append(atom)
    groups = [buckets[sig] for sig in sorted(buckets)]
    return min(
        _serialize([atom for group in combo for atom in group])
        for combo in product(*(permutations(g) for g in groups))
    )


def _incidence(h: Hypergraph) -> nx.Graph:
    g = nx.Graph()
    for v in h.vertices:
        g.add_node(("v", v), part="vertex")
    for label, e in h.edges.items():
        g.add_node(("e", label), part="edge")
        for v in e:
            g.add_edge(("e", label), ("v", v))
    return g


def reference_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """VF2 on the two incidence graphs."""
    return GraphMatcher(
        _incidence(a), _incidence(b), node_match=categorical_node_match("part", None)
    ).is_isomorphic()
