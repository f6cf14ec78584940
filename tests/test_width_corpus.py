"""Known-optima width corpus: ``repro.widths`` against hand-authored
hypergraphs whose fhtw and subw are known exactly.

Each instance under ``tests/data/widths`` is a FraSMT-style pair: a
``.hg`` file of hyperedges in Fischl's format (``R(A,B),`` per line, the
last one closed by ``.``) and an ``.opt`` file giving the optimum of each
width as an exact fraction (``fhtw 3/2`` / ``subw 3/2``).  The corpus:

* the cycles C3–C6: fhtw 3/2, then 2; subw ``2 - 1/ceil(k/2)``;
* the cliques K3–K5 as graphs: ``k/2`` for both;
* Loomis–Whitney LW3 and LW4: ``n/(n-1)`` for both;
* the bow-tie (two triangles sharing a vertex): 3/2 for both;
* the 3-edge path and the 3-leaf star: 1 for both.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from repro.hypergraph import Hypergraph
from repro.widths import (
    fhtw_certificate,
    fhtw_with_decomposition,
    fractional_edge_cover_number,
    fractional_hypertree_width,
    submodular_width,
    subw_lower_certificate,
)

CORPUS = Path(__file__).parent / "data" / "widths"
TOL = 1e-5


def read_hg(path: Path) -> Hypergraph:
    edges = {
        label: [v.strip() for v in members.split(",")]
        for label, members in re.findall(r"(\w+)\(([^)]*)\)", path.read_text())
    }
    return Hypergraph(edges)


def read_opt(path: Path) -> dict[str, Fraction]:
    return {
        name: Fraction(value)
        for name, value in (line.split() for line in path.read_text().splitlines())
    }


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in CORPUS.glob("*.hg"))
)
def test_known_optima(name):
    h = read_hg(CORPUS / f"{name}.hg")
    opt = read_opt(CORPUS / f"{name}.opt")
    fhtw, subw = float(opt["fhtw"]), float(opt["subw"])

    assert math.isclose(fractional_hypertree_width(h), fhtw, abs_tol=TOL)

    width, td, _ = fhtw_with_decomposition(h)
    assert math.isclose(width, fhtw, abs_tol=TOL)
    td.validate(h)
    assert math.isclose(
        max(fractional_edge_cover_number(h.edges, bag) for bag in td.bags),
        fhtw,
        abs_tol=TOL,
    )

    assert math.isclose(submodular_width(h), subw, abs_tol=TOL)

    upper = fhtw_certificate(h)
    assert math.isclose(upper.value, fhtw, abs_tol=TOL)
    assert upper.verify()

    lower = subw_lower_certificate(h)
    assert math.isclose(lower.value, subw, abs_tol=TOL)
    assert lower.verify()


def test_corpus_is_complete():
    """Every instance has its optima, and none has gone missing."""
    hg = {p.stem for p in CORPUS.glob("*.hg")}
    assert hg == {p.stem for p in CORPUS.glob("*.opt")}
    assert len(hg) == 12
