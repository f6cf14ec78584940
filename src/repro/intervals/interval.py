"""Closed intervals with real endpoints.

The paper (Remark B.1) assumes w.l.o.g. that all input intervals are
closed: any open endpoint can be nudged by a sufficiently small epsilon
without changing any intersection.  This module provides the closed
:class:`Interval` value type used throughout the library, plus the
epsilon-closure helper for open/half-open inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[left, right]`` with real endpoints.

    A *point interval* ``[p, p]`` behaves exactly like the point ``p``:
    intersection joins over point intervals degenerate to equality joins
    (Section 1 of the paper).
    """

    left: float
    right: float

    def __post_init__(self) -> None:
        # ``not <=`` rather than ``>``: a NaN endpoint compares false
        if not self.left <= self.right:
            raise ValueError(
                f"interval endpoints {self.left}, {self.right} are not "
                f"ordered: the left one exceeds the right one, or one is NaN"
            )

    @staticmethod
    def point(value: float) -> "Interval":
        """The point interval ``[value, value]``."""
        return Interval(value, value)

    @property
    def is_point(self) -> bool:
        return self.left == self.right

    @property
    def length(self) -> float:
        return self.right - self.left

    def contains_point(self, p: float) -> bool:
        return self.left <= p <= self.right

    def contains(self, other: "Interval") -> bool:
        """True if ``other`` is a sub-interval of this interval."""
        return self.left <= other.left and other.right <= self.right

    def intersects(self, other: "Interval") -> bool:
        """True if the two closed intervals share at least one point."""
        return self.left <= other.right and other.left <= self.right

    def intersection(self, other: "Interval") -> "Interval | None":
        """The intersection interval, or ``None`` if disjoint."""
        lo = max(self.left, other.left)
        hi = min(self.right, other.right)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def shift(self, delta_left: float, delta_right: float) -> "Interval":
        return Interval(self.left + delta_left, self.right + delta_right)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.left}, {self.right}]"


def intersect_all(intervals: Iterable[Interval]) -> Interval | None:
    """Intersection of a collection of intervals (``None`` if empty).

    This is the *intersection predicate* of Section 4.1: the intersection
    of closed intervals ``x_1..x_k`` equals ``[max_i x_i.l, min_i x_i.r]``
    when that is a valid interval, and is empty otherwise.
    """
    lo = -math.inf
    hi = math.inf
    seen = False
    for x in intervals:
        seen = True
        if x.left > lo:
            lo = x.left
        if x.right < hi:
            hi = x.right
        if lo > hi:
            return None
    if not seen:
        raise ValueError("intersect_all requires at least one interval")
    return Interval(lo, hi)


def all_intersect(intervals: Iterable[Interval]) -> bool:
    """True iff the intersection of all given intervals is non-empty."""
    return intersect_all(intervals) is not None


def close_open_interval(
    left: float,
    right: float,
    left_open: bool,
    right_open: bool,
    epsilon: float,
) -> Interval:
    """Epsilon-closure of a possibly open interval (Remark B.1).

    ``(x, y)`` becomes ``[x + eps, y - eps]`` for an ``eps`` smaller than
    half the minimum gap between distinct endpoints in the data, which
    preserves every pairwise intersection.
    """
    lo = left + epsilon if left_open else left
    hi = right - epsilon if right_open else right
    return Interval(lo, hi)


def minimum_endpoint_gap(endpoints: Sequence[float]) -> float:
    """The smallest positive distance between distinct endpoint values.

    Used to pick the epsilon for :func:`close_open_interval`.  Returns ``inf``
    when fewer than two distinct endpoints exist.
    """
    distinct = sorted(set(endpoints))
    if len(distinct) < 2:
        return math.inf
    return min(b - a for a, b in zip(distinct, distinct[1:]))
