"""Boolean conjunctive queries with intersection and equality joins.

Following Definition 3.3, a query is a conjunction of atoms over a
multi-hypergraph whose vertices are variables.  *Interval variables*
(written ``[A]``) join by interval intersection; *point variables*
(written ``A``) join by equality.  A query with only interval variables
is an **IJ** query, with only point variables an **EJ** query, and with
both an **EIJ** query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from ..hypergraph.acyclicity import is_alpha_acyclic
from ..hypergraph.hypergraph import Hypergraph


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable: point (equality join) or interval (intersection
    join).  Rendered ``A`` or ``[A]`` respectively."""

    name: str
    is_interval: bool = False

    def __repr__(self) -> str:
        return f"[{self.name}]" if self.is_interval else self.name


def ivar(name: str) -> Variable:
    """An interval variable ``[name]``."""
    return Variable(name, is_interval=True)


def pvar(name: str) -> Variable:
    """A point variable ``name``."""
    return Variable(name, is_interval=False)


@dataclass(frozen=True)
class Atom:
    """A relational atom ``label: relation(v_1, ..., v_m)``.

    ``label`` identifies the atom inside the query (hyperedge label) and
    must be unique per query; ``relation`` names the relation instance in
    the database (two atoms may share it — a self-join).
    """

    label: str
    relation: str
    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(
                f"atom {self.label}: repeated variable in {names}"
            )

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __repr__(self) -> str:
        args = ", ".join(repr(v) for v in self.variables)
        return f"{self.label}({args})"


@dataclass(frozen=True)
class Query:
    """A Boolean conjunctive query ``Q = ⋀_e R_e(e)`` (Definition 3.3)."""

    atoms: tuple[Atom, ...]
    name: str = field(default="Q", compare=False)

    def __post_init__(self) -> None:
        labels = [a.label for a in self.atoms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate atom labels in query: {labels}")
        kinds: dict[str, bool] = {}
        for atom in self.atoms:
            for v in atom.variables:
                if kinds.setdefault(v.name, v.is_interval) != v.is_interval:
                    raise ValueError(
                        f"variable {v.name} used both as point and interval"
                    )

    # ------------------------------------------------------------------
    # variable structure
    # ------------------------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        """All variables in first-occurrence order."""
        seen: dict[str, Variable] = {}
        for atom in self.atoms:
            for v in atom.variables:
                seen.setdefault(v.name, v)
        return tuple(seen.values())

    @property
    def interval_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.is_interval)

    @property
    def is_ij(self) -> bool:
        """True if every variable is an interval variable."""
        return all(v.is_interval for v in self.variables)

    @property
    def is_ej(self) -> bool:
        """True if every variable is a point variable."""
        return all(not v.is_interval for v in self.variables)

    @property
    def is_self_join_free(self) -> bool:
        relations = [a.relation for a in self.atoms]
        return len(set(relations)) == len(relations)

    @property
    def relations(self) -> frozenset[str]:
        """The relations this query reads — the dependency set of every
        artifact derived from it (the caching layers' invalidation
        unit; this is the single definition they all share)."""
        return frozenset(a.relation for a in self.atoms)

    def atoms_containing(self, variable_name: str) -> tuple[Atom, ...]:
        """The atoms whose schema contains the named variable
        (the hyperedges ``E_[X]``)."""
        return tuple(
            a for a in self.atoms
            if any(v.name == variable_name for v in a.variables)
        )

    def atom(self, label: str) -> Atom:
        for a in self.atoms:
            if a.label == label:
                return a
        raise KeyError(label)

    # ------------------------------------------------------------------
    # hypergraph view
    # ------------------------------------------------------------------

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph: vertices are variable names, one labelled
        hyperedge per atom."""
        return Hypergraph(
            {a.label: a.variable_names for a in self.atoms},
        )

    @cached_property
    def is_alpha_acyclic(self) -> bool:
        """Whether :meth:`hypergraph` is α-acyclic (GYO), computed once
        per query object: a reduced disjunct's structure never changes,
        so re-ranking it after a delta reads cardinalities only."""
        return is_alpha_acyclic(self.hypergraph())

    @cached_property
    def shared_names(self) -> tuple[tuple[str, ...], ...]:
        """Per atom, the names of its variables another atom has too:
        its part of the singleton-free core, once per query object."""
        names = [v for atom in self.atoms for v in atom.variable_names]
        return tuple(
            tuple(v for v in atom.variable_names if names.count(v) > 1)
            for atom in self.atoms
        )

    def interval_variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.interval_variables)

    def __repr__(self) -> str:
        return f"{self.name} := " + " ∧ ".join(repr(a) for a in self.atoms)


def make_query(
    atoms: Iterable[tuple[str, Sequence[Variable]]],
    name: str = "Q",
) -> Query:
    """Build a query from ``(relation, variables)`` pairs, auto-labelling
    repeated relation names ``R``, ``R#2``, ``R#3``, ..."""
    counts: dict[str, int] = {}
    built: list[Atom] = []
    for relation, variables in atoms:
        counts[relation] = counts.get(relation, 0) + 1
        label = relation if counts[relation] == 1 else f"{relation}#{counts[relation]}"
        built.append(Atom(label, relation, tuple(variables)))
    return Query(tuple(built), name=name)
