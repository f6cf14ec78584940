"""The paper's own prediction, checked beside the benchmark numbers.

Theorem 4.15: an IJ query costs what its hardest EJ disjunct costs, so
the measured log-log runtime exponent of a cold evaluation should track
``ijw`` — about 1 (times polylog) for the iota-acyclic queries and 3/2
for the triangle.  Informational: reported in the traced ``cold_reduce``
run, never gated (at these sizes the fit is noisy).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from repro.core import QuerySession
from repro.queries.catalog import (
    figure9e_ij,
    figure9f_ij,
    path_ij,
    star_ij,
    triangle_ij,
)
from repro.widths import ij_width
from repro.workloads import random_database

REPEATS = 3


def fit_loglog_slope(ns, times) -> float:
    """Least-squares slope of log(time) against log(n) (the arithmetic
    of ``benchmarks/conftest.fit_loglog_slope``, copied so this
    directory stays self-contained)."""
    xs = np.log([float(n) for n in ns])
    ys = np.log([max(t, 1e-9) for t in times])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def paper_check(n: int, seed: int) -> dict[str, float]:
    queries = {
        "fig9e": figure9e_ij(),
        "path3": path_ij(3),
        "star3": star_ij(3),
        "fig9f": figure9f_ij(),
        "triangle": triangle_ij(),
    }
    sizes = (n // 2, n, 2 * n)
    report = {}
    for name, query in queries.items():
        times = []
        for size in sizes:
            db = random_database(query, size, seed=seed, domain=12.0 * size)
            samples = []
            for _ in range(REPEATS):
                started = perf_counter()
                QuerySession(db).evaluate(query, strategy="reduction")
                samples.append(perf_counter() - started)
            times.append(median(samples))
        report[f"paper.exponent.{name}"] = fit_loglog_slope(sizes, times)
        report[f"paper.ijw.{name}"] = float(ij_width(query.hypergraph()))
    return report
