"""Segment trees over interval endpoints (Section 3 and Appendix B).

The segment tree for a set of intervals ``I`` is a *complete* binary tree
whose leaves are the elementary segments induced by the sorted distinct
endpoints ``p_1 < ... < p_m``::

    (-inf, p_1), [p_1, p_1], (p_1, p_2), [p_2, p_2], ..., (p_m, +inf)

Key properties (Property 3.2):

1. ``u`` is an ancestor of ``v`` iff ``seg(u) ⊇ seg(v)`` iff the
   bitstring of ``u`` is a prefix of the bitstring of ``v``.
2. The canonical partition ``CP_I(x)`` of an interval ``x`` is an
   antichain (no node is an ancestor of another).
3. ``|CP_I(x)| = O(log |I|)`` and it is computable in ``O(log |I|)``.

The tree is fully determined by the sorted endpoint list, and that list
is all a :class:`SegmentTree` stores: a node is its index ``v`` in the
heap layout of the complete tree (root ``1``, children ``2v`` and
``2v + 1`` — see :mod:`repro.intervals.bitstring`), its segment follows
from ``v`` by index arithmetic, and :meth:`SegmentTree.cp_ids` /
:meth:`SegmentTree.leaf_id` are a binary search plus an ``O(log n)``
integer walk.  The tree speaks ids only: :meth:`SegmentTree.segment`
is ``seg(v)``, :meth:`SegmentTree.node_ids` the node set, and a caller
that wants the paper's bitstring renders an id with
:func:`repro.intervals.bitstring.bits`.

:meth:`SegmentTree.column_encodings` does both for a batch of values
at once — a forward reduction passes every column under one variable's
tree as one batch — in two stages.  The *walk* depends on the values and
``leaf`` only: the bottom-up ``l, r`` walk over heap ids as ``height``
unfiltered array steps, each depth's nodes read off by one mask.  It
runs once per tree and variant kind; the *cut*, which splits each
depth's nodes by one broadcast, runs over it once per part count and
ordering flag.  A leaf of the level above the packed last one enters
the walk as its two *phantom* children at level ``height``.  A range
covers both or neither, so the walk takes their parent and never emits
a phantom.  On both paths leaf ranks come from Python ``bisect`` on the
endpoint tuple, never from a ``float64`` cast, so ``2**53`` and
``2**53 + 1`` stay two leaves.  The scalar walk serves one tuple (a
delta patch) and is the test oracle of the batch method, which serves a
relation (the forward reduction).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .bitstring import EMPTY, _cut_plan, split_ids
from .interval import Interval

NEG_INF = -math.inf
POS_INF = math.inf

#: Node and part ids are cells of ``uint32`` code matrices: a tree deeper
#: than this would wrap them (``2 << 30`` is the largest id bound that
#: fits), so it is refused at construction.
MAX_HEIGHT = 30


@dataclass(frozen=True)
class Segment:
    """A segment of the real line with open/closed endpoint flags."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool

    def contains_point(self, p: float) -> bool:
        if p < self.lo or (p == self.lo and self.lo_open):
            return False
        if p > self.hi or (p == self.hi and self.hi_open):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = "(" if self.lo_open else "["
        hi = ")" if self.hi_open else "]"
        return f"{lo}{self.lo}, {self.hi}{hi}"


def elementary_segments(endpoints: Sequence[float]) -> list[Segment]:
    """The elementary segments induced by sorted distinct endpoints.

    For ``m`` distinct endpoints this returns ``2m + 1`` pairwise-disjoint
    segments that partition the real line (Section 3).  With no endpoints
    the single segment ``(-inf, +inf)`` is returned.
    """
    points = sorted(set(endpoints))
    if not points:
        return [Segment(NEG_INF, POS_INF, True, True)]
    segments = [Segment(NEG_INF, points[0], True, True)]
    for i, p in enumerate(points):
        segments.append(Segment(p, p, False, False))
        nxt = points[i + 1] if i + 1 < len(points) else POS_INF
        segments.append(Segment(p, nxt, True, True))
    return segments


def _cut(walk: list, n: int, parts: int, nonempty_last: bool) -> tuple:
    """Split every node of a :meth:`SegmentTree._walk` over ``n``
    values into ``parts`` parts: the matrix grouped by value, and each
    value's ``start`` and ``count``."""
    owners, blocks = [np.empty(0, np.intp)], [np.empty((0, parts), np.int64)]
    for depth, whose, ids in walk:
        if ids.size:
            shifts, tops = _cut_plan(depth, parts)
            block = (ids[:, None, None] >> shifts) & (tops - 1) | tops
            blocks.append(block.reshape(-1, parts))
            owners.append(np.repeat(whose, len(shifts)))
    owner, matrix = np.concatenate(owners), np.concatenate(blocks)
    if nonempty_last and parts > 1:
        kept = matrix[:, -1] != EMPTY
        owner, matrix = np.compress(kept, owner), np.compress(kept, matrix, axis=0)
    order = np.argsort(owner, kind="stable")
    matrix = np.take(matrix.astype(np.uint32), order, axis=0)
    matrix.setflags(write=False)
    counts = np.bincount(owner, minlength=n)
    return matrix, np.cumsum(counts) - counts, counts


class SegmentTree:
    """Segment tree for a set of intervals (Section 3, Appendix B.1).

    The tree shape is the *complete* binary tree of the paper: every
    level except possibly the last is full, and the last level's leaves
    are packed to the left.  This reproduces Figure 3 exactly.

    Leaves are numbered by *rank* ``0 .. 2m`` from the left (even ranks
    are the open gaps, odd rank ``2i + 1`` is the point ``[p_i, p_i]``).
    With ``n = 2m + 1`` leaves and height ``d = ceil(log2 n)``, level
    ``d`` holds the first ``2 * (n - 2^(d-1))`` leaves and level
    ``d - 1`` the rest, which is all :meth:`_span` needs to give a node's
    leaf-rank range in O(1).
    """

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._intervals = list(intervals)
        self._set_endpoints(
            p for x in self._intervals for p in (x.left, x.right)
        )

    @classmethod
    def from_endpoints(cls, endpoints: Iterable[float]) -> "SegmentTree":
        """The tree over an endpoint domain — identical, for every
        encoding purpose, to the tree of any interval set with those
        endpoints (how a cache entry restores its trees)."""
        tree = cls()
        tree._set_endpoints(endpoints)
        return tree

    def _set_endpoints(self, endpoints: Iterable[float]) -> None:
        self._points: tuple = tuple(sorted(set(endpoints)))
        leaves = 2 * len(self._points) + 1
        self.height = (leaves - 1).bit_length()
        if self.height > MAX_HEIGHT:
            raise OverflowError(
                f"a segment tree of height {self.height} exceeds the "
                f"uint32 node-id space (height <= {MAX_HEIGHT})"
            )
        # internal nodes of level d-1 / leaves of level d (the root of a
        # one-leaf tree counts as its own bottom level)
        self._inner = leaves - (1 << (self.height - 1)) if self.height else 0
        self._bottom = 2 * self._inner if self.height else 1
        self._canonical: dict[int, list[Any]] = {}
        # (value, parts, leaf variant?, nonempty_last) -> part-id matrix
        self._encodings: dict[tuple, np.ndarray] = {}
        # one entry per batch of :meth:`column_encodings`: [value ->
        # position (built by the first lookup), values, each value's
        # bisect_left, {leaf?: walk}, {(parts, leaf?, nonempty_last):
        # (matrix, starts, counts)}] — where ``encodings`` looks first
        self._columns: list[list] = []

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    @property
    def intervals(self) -> list[Interval]:
        return list(self._intervals)

    @property
    def size(self) -> int:
        """Number of nodes in the tree."""
        return 4 * len(self._points) + 1

    @property
    def id_bound(self) -> int:
        """An exclusive bound on every node id of this tree and on every
        part id its nodes split into, known without a scan."""
        return 2 << self.height

    @property
    def endpoints(self) -> tuple:
        """The endpoint domain, ascending.  A segment tree's *structure*
        (elementary segments, node ids) is a pure function of it, which
        is why a cache entry stores nothing else of a tree."""
        return self._points

    def _rank(self, position: int) -> int:
        """The leaf rank at a level-``height`` position (positions past
        the bottom leaves fall, in pairs, on the leaves of the level
        above)."""
        if position < self._bottom:
            return position
        return (position >> 1) + self._inner

    def _span(self, v: int) -> tuple[int, int]:
        """Ranks of the leftmost and rightmost leaf under node ``v``."""
        depth = v.bit_length() - 1
        below = self.height - depth
        first = (v - (1 << depth)) << below
        return self._rank(first), self._rank(first + (1 << below) - 1)

    def _leaf_at(self, rank: int) -> int:
        if rank < self._bottom:
            return (1 << self.height) + rank
        return (1 << (self.height - 1)) + rank - self._inner

    def segment(self, v: int) -> Segment:
        """``seg(v)``: the union of the elementary segments of the leaves
        under node ``v``."""
        points = self._points
        first, last = self._span(v)
        if first % 2:
            lo, lo_open = points[first >> 1], False
        else:
            lo, lo_open = (points[(first >> 1) - 1] if first else NEG_INF), True
        if last % 2:
            hi, hi_open = points[last >> 1], False
        else:
            at = last >> 1
            hi, hi_open = (points[at] if at < len(points) else POS_INF), True
        return Segment(lo, hi, lo_open, hi_open)

    def node_ids(self) -> range:
        """Every node id.  Levels above the bottom are full; the bottom
        is packed left."""
        return range(1, (1 << self.height) + self._bottom)

    # ------------------------------------------------------------------
    # canonical partitions and point location, on node ids
    # ------------------------------------------------------------------

    def cp_ids(self, x: Interval) -> list[int]:
        """``CP_I(x)``: ids of the maximal nodes whose segments are
        contained in ``x`` (Definition 3.1), left to right.

        The leaves inside ``x`` are the rank range from the first
        endpoint ``>= x.left`` to the last ``<= x.right``; the walk
        descends only into nodes that straddle an end of that range, at
        most four per level, so the result has size ``O(log |I|)``.
        When the endpoints of ``x`` occur in the tree, the segments of
        the result tile ``x`` exactly.
        """
        points = self._points
        lo = 2 * bisect_left(points, x.left) + 1
        hi = 2 * bisect_right(points, x.right) - 1
        result: list[int] = []
        if lo > hi:
            return result
        stack = [1]
        while stack:
            v = stack.pop()
            first, last = self._span(v)
            if lo <= first and last <= hi:
                result.append(v)
            elif first <= hi and lo <= last:
                stack.append(2 * v + 1)
                stack.append(2 * v)
        return result

    def _rank_of(self, p: float) -> int:
        """Rank of the leaf containing ``p`` — odd iff ``p`` is an
        endpoint of the domain."""
        points = self._points
        i = bisect_left(points, p)
        return 2 * i + (i < len(points) and points[i] == p)

    def leaf_id(self, p: float) -> int:
        """Id of the unique leaf whose segment contains ``p``."""
        return self._leaf_at(self._rank_of(p))

    def in_domain(self, x: Interval) -> bool:
        """True iff both endpoints of ``x`` already occur in the tree's
        endpoint domain.  Exactly then would rebuilding the tree with
        ``x`` included produce the *identical* tree (same elementary
        segments, same node ids), so ``x`` can be encoded against this
        tree without a rebuild."""
        return self._rank_of(x.left) % 2 == self._rank_of(x.right) % 2 == 1

    def encodings(
        self, value: Interval, parts: int, leaf: bool, nonempty_last: bool
    ) -> np.ndarray:
        """All ``(X1..Xparts)`` encodings of one interval value as a
        read-only ``(n, parts)`` ``uint32`` matrix of part ids: the
        splits of its canonical-partition nodes (CP variant) or, with
        ``leaf``, of the leaf of its left endpoint (Definition 4.9),
        without the splits whose last part is empty when the Appendix G
        ordering constraint ``nonempty_last`` applies.  Memoized — a
        delta patch asks again — and a value some batch of
        :meth:`column_encodings` cut for this variant is a row slice of
        that batch's matrix, not a walk (the first such lookup indexes
        the batch's values; a reduction that is never patched never
        hashes them)."""
        key = (value, parts, leaf, nonempty_last)
        matrix = self._encodings.get(key)
        if matrix is None:
            for batch in self._columns:
                cut = batch[4].get(key[1:])
                if cut is None:
                    continue
                if batch[0] is None:
                    batch[0] = dict(zip(batch[1], range(len(batch[1]))))
                at = batch[0].get(value)
                if at is not None:
                    rows, starts, counts = cut
                    matrix = rows[starts[at] : starts[at] + counts[at]]
                    break
            else:
                nodes = [self.leaf_id(value.left)] if leaf else self.cp_ids(value)
                matrix = np.concatenate(
                    [split_ids(v, parts) for v in nodes]
                    or [np.empty((0, parts), dtype=np.uint32)]
                )
                if nonempty_last and parts > 1:
                    matrix = matrix[matrix[:, -1] != EMPTY]
                matrix.setflags(write=False)
            self._encodings[key] = matrix
        return matrix

    def column_encodings(
        self,
        values: Sequence[Interval],
        parts: int,
        leaf: bool,
        nonempty_last: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`encodings` of all the ``values`` in whole-column array
        steps: one read-only ``(N, parts)`` ``uint32`` matrix plus, per
        value, the ``start`` and ``count`` of its rows in it (a set:
        their order within a value is unspecified).

        ``values`` is a *batch* (a forward reduction passes every column
        under this tree end to end) kept on the tree with each value's
        ``bisect_left``, the walk per ``leaf`` and the cut per ``(parts,
        leaf, nonempty_last)``: a later call with the same list object
        only computes what it lacks.  :meth:`encodings` answers a value
        from the batch; its value → position index is built by the
        first lookup.

        The canonical partitions are the bottom-up walk over the heap
        ids of the level-``height`` positions ``l .. r`` under each
        value's leaf-rank range: take ``l`` where it is a right child
        and ``r`` where it is a left child, then halve both.  It runs
        unfiltered — once ``l > r`` it stays so — into one
        ``(height + 1, 2, n)`` level array, and one mask and
        ``np.nonzero`` read every depth's nodes off it.  The cut splits
        each depth's nodes with one broadcast over its cut plan.
        """
        for batch in self._columns:
            if batch[1] is values:
                break
        else:
            first = [bisect_left(self._points, x.left) for x in values]
            batch = [None, values, np.array(first, np.int64), {}, {}]
            self._columns.append(batch)
        _, _, first, walks, cuts = batch
        key = (parts, leaf, nonempty_last)
        if key not in cuts:
            if leaf not in walks:
                walks[leaf] = self._walk(values, first, leaf)
            cuts[key] = _cut(walks[leaf], len(values), parts, nonempty_last)
        return cuts[key]

    def _walk(self, values: Sequence[Interval], first: np.ndarray, leaf: bool) -> list:
        """Per depth, bottom-up, the (value position, node id) arrays of
        the values' canonical partitions or, with ``leaf``, of the leaves
        of their left endpoints; within a depth the ``l`` side, then the
        ``r`` side, each by value."""
        points, height, inner = self._points, self.height, self._inner
        if leaf:
            # the rank is odd iff the left endpoint is in the domain
            rank = first + [bisect_right(points, x.left) for x in values]
            deep = rank < self._bottom
            ids = np.where(deep, rank, rank - inner - (1 << height >> 1)) + (1 << height)
            (low,), (high,) = np.nonzero(deep), np.nonzero(~deep)
            return [(height, low, ids[low]), (height - 1, high, ids[high])]
        last = np.array([bisect_right(points, x.right) for x in values], np.int64)
        # row 0 is every value's ``l``, row 1 its ``r``; a leaf of the
        # level above the last stands for its two phantom children
        ends = np.stack((2 * first + 1, 2 * last - 1))
        ends = np.where(ends < self._bottom, ends, 2 * (ends - inner) + [[0], [1]])
        levels = np.empty((height + 1, *ends.shape), np.int64)
        levels[0] = ends + (1 << height)
        for step in range(height):
            np.right_shift(levels[step] + [[1], [-1]], 1, out=levels[step + 1])
        taken = (levels & 1 == [[1], [0]]) & (levels[:, :1] <= levels[:, 1:])
        step, _, owner = np.nonzero(taken)
        ids, bounds = levels[taken], np.searchsorted(step, range(height + 2))
        return [
            (height - s, owner[a:b], ids[a:b])
            for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]

    # ------------------------------------------------------------------
    # classical insert / stab (Algorithms 2 and 3)
    # ------------------------------------------------------------------

    def insert(self, x: Interval, payload: Any = None) -> None:
        """Insert ``x`` into the canonical subsets of its ``CP`` nodes
        (Algorithm 2)."""
        if payload is None:
            payload = x
        for v in self.cp_ids(x):
            self._canonical.setdefault(v, []).append(payload)

    def stab(self, p: float) -> list[Any]:
        """All payloads whose interval contains the point ``p``
        (Algorithm 3): the canonical subsets along the root-to-leaf path."""
        leaf = self.leaf_id(p)
        result: list[Any] = []
        for up in range(leaf.bit_length() - 1, -1, -1):
            result.extend(self._canonical.get(leaf >> up, ()))
        return result
