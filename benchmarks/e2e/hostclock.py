"""A reference kernel that prices the host, so that times can be
reported as if the host had run at its nominal speed.

The boxes this benchmark runs on are shared: for a minute at a time the
same code runs 1.5x to 2.7x slower (measured: no steal time is reported,
CPU time slows with wall time — a neighbour is contending for the cache
and the core).  Ten runs in a row then differ by 30-40% and no bound
below that can be held.  The slow phases last longer than a run, so
neither a median nor a longer run removes them.

What does: a fixed kernel, owned by the benchmark, is timed in short
bursts before, between and after the stretches of measured work.  The
median of its samples over ``NOMINAL_S`` (its time on the quiet
reference box) is the host's slowdown during that work, and every
measured time is divided by it.  The kernel mixes what the program does
— a gather over a few MB, sort / unique / bincount on smaller arrays,
dict-of-tuples churn — because a slow phase hits memory-bound code
harder than a bare loop.  One burst says little (a stall of a few
milliseconds moves it and not the program), so only the median over a
whole set-up or a whole timed loop is used.  The correction is partial
(in the worst phases the program slows more than the kernel, the
two-process ``serve_hot`` most of all), but it takes the spread of ten
runs from 15-40% to 3-15%.  The uncorrected times and the slowdown are
printed next to the result.

Both sides of a comparison are corrected by their own samples, and no
change to the program can move the kernel, so a gain or a loss shows
exactly as it would on a quiet host.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: the kernel's time on the quiet reference box (2 cores, Python 3.11,
#: NumPy 2.4), taken between ops of the workloads in quiet phases
NOMINAL_S = 0.00420
BURST = 7


class HostClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1 << 40, 400_000)
        self._order = rng.permutation(400_000)
        self._small = rng.integers(0, 1000, 60_000)

    def _kernel(self) -> float:
        started = perf_counter()
        self._values[self._order].sum()
        np.unique(self._small)
        np.bincount(self._small)
        np.argsort(self._small[:20_000])
        table = {}
        for i in range(2000):
            table[(i, i + 1)] = (i, "x")
        for i in range(2000):
            table[(i, i + 1)]
        return perf_counter() - started

    def burst(self) -> list[float]:
        """Kernel times of one short burst, in seconds."""
        return [self._kernel() for _ in range(BURST)]


def slowdown(samples: list[float]) -> float:
    """The host's slowdown over the work the ``samples`` surround."""
    return median(samples) / NOMINAL_S
