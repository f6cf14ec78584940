"""The ij-width (Definition 4.14): the optimality yardstick for IJ
queries.

``ijw(H) = max over H̃ ∈ τ(H) of subw(H̃)``.  An IJ query is computable
in ``O(N^ijw · polylog N)`` (Theorem 4.15) and, by the backward
reduction, no faster than its hardest reduced EJ query (Theorem 5.2).

Computation strategy: drop singleton vertices from each reduced
hypergraph (widths are unchanged), collapse structurally identical
hypergraphs, group the survivors by canonical key (the labelling
:func:`repro.engine.ej.plan_ej` keys its plans by), and compute ``subw``
once per class representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..hypergraph.hypergraph import Hypergraph
from ..hypergraph.isomorphism import isomorphism_classes
from ..hypergraph.transform import reduced_structure_classes, tau
from .fhtw import fractional_hypertree_width
from .subw import submodular_width


@dataclass
class WidthClass:
    """One isomorphism class of reduced EJ hypergraphs from ``τ(H)``."""

    representative: Hypergraph
    count: int
    fhtw: float
    subw: float
    subw_bound: str | None = None  # why ``subw`` is fhtw's bound, not exact


@dataclass
class IjWidthReport:
    """Full ij-width analysis of an IJ hypergraph."""

    num_ej_hypergraphs: int
    num_reduced: int
    classes: list[WidthClass]

    @property
    def ijw(self) -> float:
        return max(c.subw for c in self.classes)

    @property
    def max_fhtw(self) -> float:
        return max(c.fhtw for c in self.classes)

    @property
    def subw_bound(self) -> str | None:
        return next((c.subw_bound for c in self.classes if c.subw_bound), None)


def ij_width_report(
    h: Hypergraph,
    interval_vertices: Iterable[str] | None = None,
    compute_subw: bool = True,
) -> IjWidthReport:
    """Analyse ``τ(H)``: class structure and per-class widths.

    With ``compute_subw=False`` the (cheap, always-valid upper bound)
    ``fhtw`` is reported in place of ``subw`` for each class.
    """
    ej_hypergraphs = tau(h, interval_vertices)
    reduced = reduced_structure_classes(ej_hypergraphs)
    representatives = list(reduced.values())
    groups = isomorphism_classes(representatives)
    # Singleton dropping may empty a hypergraph entirely; the EJ query
    # still reads its (singleton-column) relations, so its width is 1
    # whenever the original query has at least one atom.
    floor = 1.0 if h.num_edges else 0.0
    classes: list[WidthClass] = []
    for group in groups:
        rep = representatives[group[0]]
        fhtw = max(fractional_hypertree_width(rep), floor)
        subw, why = fhtw, None
        if compute_subw:
            try:
                subw = max(submodular_width(rep), floor)
            except RuntimeError as error:  # the bound subw <= fhtw stands
                why = f"subw bounded by fhtw ({error})"
        classes.append(WidthClass(rep, len(group), fhtw, subw, why))
    classes.sort(key=lambda c: (-c.subw, -c.fhtw, -c.count))
    return IjWidthReport(
        num_ej_hypergraphs=len(ej_hypergraphs),
        num_reduced=len(reduced),
        classes=classes,
    )


def ij_width(
    h: Hypergraph,
    interval_vertices: Iterable[str] | None = None,
) -> float:
    """``ijw(H)`` (Definition 4.14)."""
    return ij_width_report(h, interval_vertices).ijw
