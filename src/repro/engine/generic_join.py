"""The join problem behind the worst-case optimal multiway join
(generic join / LFTJ-style): atoms binding relation columns to join
variables, and the global variable order the join proceeds in.

Given atoms over a global variable order, the join proceeds one variable
at a time: at each level the candidate values are the intersection of
the matching trie levels of every atom containing the variable, taken
from the smallest candidate set.  The runtime matches the AGM bound
``O(N^rho*)`` up to logarithmic factors [27, 34] — the bag
materialisation engine behind Theorem 4.15's decomposition evaluation.
The join itself runs on sorted code arrays:
:func:`repro.engine.columnar_eval.generic_join_count` and its Boolean
and materialising siblings.
"""

from __future__ import annotations

from typing import Sequence

from .relation import Relation


class JoinAtom:
    """An atom of a join problem: a relation with a variable binding.

    ``variables[i]`` names the join variable bound to column ``i`` of the
    relation — allowing renaming for self-joins.
    """

    def __init__(self, relation: Relation, variables: Sequence[str] | None = None):
        self.relation = relation
        self.variables: tuple[str, ...] = tuple(
            variables if variables is not None else relation.schema
        )
        if len(self.variables) != relation.arity:
            raise ValueError(
                f"{relation.name}: binding {self.variables} does not match "
                f"arity {relation.arity}"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"repeated variable in binding {self.variables}")


def default_variable_order(atoms: Sequence[JoinAtom]) -> list[str]:
    """Order variables by descending atom-degree, ties by appearance —
    a standard greedy heuristic for generic join."""
    degree: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    counter = 0
    for atom in atoms:
        for v in atom.variables:
            degree[v] = degree.get(v, 0) + 1
            if v not in first_seen:
                first_seen[v] = counter
                counter += 1
    return sorted(degree, key=lambda v: (-degree[v], first_seen[v]))
