"""The FAQ-AI comparator (Section 2, Appendix F).

An intersection join is a disjunction of inequality joins (condition
(15)/(16) of Appendix F): for intervals one per atom, some atom's left
endpoint lies inside every other atom's interval.  FAQ-AI [2] evaluates
such queries over *relaxed* tree decompositions, where every inequality
must span at most two adjacent bags.  This module provides:

* the inequality encoding of an IJ query (``F(X)`` sets and the pairs of
  relations connected by an inequality);
* the relaxed-width analysis of Appendix F: the minimum, over relation
  partitions whose inequality quotient graph is a forest, of the largest
  part — reproducing ``subwℓ`` = 2, 2, 3 for the triangle, LW4 and the
  4-clique, and the Table 3 cycle witnesses;
* an executable two-bag evaluator for the triangle with the FAQ-AI
  complexity shape ``O(N² polylog N)``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from typing import Iterator, Sequence

from ..engine.relation import Database
from ..intervals.interval import Interval
from ..intervals.segment_tree import SegmentTree
from ..queries.query import Query
from .sweep import sweep_join


# ----------------------------------------------------------------------
# inequality encoding and relaxed-width analysis
# ----------------------------------------------------------------------

def inequality_pairs(query: Query) -> set[frozenset[str]]:
    """Pairs of atoms connected by at least one inequality in the FAQ-AI
    encoding of the IJ query.

    For each interval variable ``X`` with atom set ``F(X)``, the chosen
    pivot ``V_X`` is compared against every other atom of ``F(X)``; for
    the lower-bound analysis the paper picks pivots so that *every* pair
    of atoms sharing a variable is connected, which is what binary-IJ
    queries (each variable in ≤ 3 atoms) give for suitable pivots.  We
    conservatively return all co-occurrence pairs.
    """
    pairs: set[frozenset[str]] = set()
    for v in query.variables:
        atoms = query.atoms_containing(v.name)
        for a, b in combinations(atoms, 2):
            pairs.add(frozenset({a.label, b.label}))
    return pairs


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All set partitions of ``items`` (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i, part in enumerate(partition):
            yield partition[:i] + [[first] + part] + partition[i + 1:]
        yield [[first]] + partition


def quotient_is_forest(
    partition: Sequence[Sequence[str]],
    pairs: set[frozenset[str]],
) -> tuple[bool, list[frozenset[str]] | None]:
    """Can the parts be arranged in a tree so every inequality connects
    the same or adjacent parts?

    True iff the simple quotient graph (parts as nodes, inter-part
    inequality pairs as edges) is a forest.  When it is not, a witness
    cycle of inequalities is returned (the Table 3 right column).
    """
    import networkx as nx

    part_of: dict[str, int] = {}
    for i, part in enumerate(partition):
        for label in part:
            part_of[label] = i
    quotient = nx.Graph()
    quotient.add_nodes_from(range(len(partition)))
    edge_witness: dict[tuple[int, int], frozenset[str]] = {}
    multi: list[tuple[int, int, frozenset[str]]] = []
    for pair in pairs:
        a, b = tuple(pair)
        pa, pb = part_of[a], part_of[b]
        if pa == pb:
            continue
        key = (min(pa, pb), max(pa, pb))
        edge_witness.setdefault(key, pair)
        quotient.add_edge(*key)
        multi.append((*key, pair))
    try:
        cycle_edges = nx.find_cycle(quotient)
    except nx.NetworkXNoCycle:
        return True, None
    witness = [
        edge_witness[(min(u, v), max(u, v))] for u, v in cycle_edges
    ]
    return False, witness


def relaxed_width_lower_bound(query: Query) -> int:
    """``subwℓ`` of the FAQ-AI encoding, in units of relations per bag.

    The paper's argument (F.1-F.3): each relation's variables are
    private, so a bag holding ``m`` relations costs ``m`` under the
    uniform edge-dominated polymatroid; a relaxed decomposition exists
    iff the relation partition's inequality quotient is a forest.  The
    bound is the min over forest partitions of the max part size.
    """
    labels = [a.label for a in query.atoms]
    pairs = inequality_pairs(query)
    best = len(labels)
    for partition in set_partitions(labels):
        feasible, _ = quotient_is_forest(partition, pairs)
        if feasible:
            best = min(best, max(len(part) for part in partition))
    return best


def pair_partitions_with_witnesses(
    query: Query,
) -> list[tuple[list[list[str]], list[frozenset[str]]]]:
    """Table 3: partitions of the atoms into parts of size exactly two,
    each with a witness cycle of inequalities (all such partitions are
    infeasible for the 4-clique query)."""
    labels = [a.label for a in query.atoms]
    pairs = inequality_pairs(query)
    out: list[tuple[list[list[str]], list[frozenset[str]]]] = []
    for partition in set_partitions(labels):
        if any(len(part) != 2 for part in partition):
            continue
        feasible, witness = quotient_is_forest(partition, pairs)
        if not feasible:
            assert witness is not None
            out.append((partition, witness))
    return out


# ----------------------------------------------------------------------
# executable two-bag FAQ-AI-shaped evaluator for the triangle
# ----------------------------------------------------------------------

class IntervalPairIndex:
    """Existence index over tuples ``(a_interval, c_interval)``:
    answers "is there a tuple with ``a ∩ qa ≠ ∅`` and ``c ∩ qc ≠ ∅``"
    in ``O(log² N)``.

    Decomposes ``a ∩ qa ≠ ∅`` into (i) ``a`` contains ``qa.left`` — a
    stabbing query on a segment tree over the ``a`` intervals — and
    (ii) ``a.left ∈ qa`` — a 1-D range over tuples sorted by ``a.left``.
    Each node list is sorted by ``c.left`` with prefix maxima of
    ``c.right`` so the ``c``-condition becomes one binary search.
    """

    def __init__(self, tuples: Sequence[tuple[Interval, Interval]]):
        self._tuples = list(tuples)
        self._tree = SegmentTree([a for a, _ in self._tuples])
        self._node_lists: dict[int, tuple[list[float], list[float]]] = {}
        per_node: dict[int, list[Interval]] = {}
        for a, c in self._tuples:
            for node in self._tree.cp_ids(a):
                per_node.setdefault(node, []).append(c)
        for node, cs in per_node.items():
            self._node_lists[node] = _lefts_and_prefix_max(cs)
        by_left = sorted(self._tuples, key=lambda t: t[0].left)
        self._lefts = [a.left for a, _ in by_left]
        self._range_tree = _RangeExistenceTree([c for _, c in by_left])

    def exists(self, qa: Interval, qc: Interval) -> bool:
        # case (i): some tuple's a-interval contains qa.left
        leaf = self._tree.leaf_id(qa.left)
        for up in range(leaf.bit_length()):
            lists = self._node_lists.get(leaf >> up)
            if lists and _some_c_intersects(lists, qc):
                return True
        # case (ii): some tuple with a.left in [qa.left, qa.right]
        lo = _first_at_least(self._lefts, qa.left)
        hi = bisect_right(self._lefts, qa.right)
        if lo < hi and self._range_tree.exists(lo, hi, qc):
            return True
        return False


def _lefts_and_prefix_max(cs: list[Interval]) -> tuple[list[float], list[float]]:
    ordered = sorted(cs, key=lambda c: c.left)
    lefts = [c.left for c in ordered]
    prefix_max: list[float] = []
    best = float("-inf")
    for c in ordered:
        best = max(best, c.right)
        prefix_max.append(best)
    return lefts, prefix_max


def _some_c_intersects(
    lists: tuple[list[float], list[float]], qc: Interval
) -> bool:
    lefts, prefix_max = lists
    hi = bisect_right(lefts, qc.right)
    return hi > 0 and prefix_max[hi - 1] >= qc.left


def _first_at_least(values: list[float], x: float) -> int:
    from bisect import bisect_left

    return bisect_left(values, x)


class _RangeExistenceTree:
    """Static segment tree over positions; each node stores the sorted
    ``c.left`` list with prefix-max ``c.right`` of its range."""

    def __init__(self, cs: list[Interval]):
        self.n = len(cs)
        self.levels: list[list[tuple[list[float], list[float]]]] = []
        if self.n == 0:
            return
        current = [_lefts_and_prefix_max([c]) for c in cs]
        self.levels.append(current)
        width = 1
        while width < self.n:
            nxt: list[tuple[list[float], list[float]]] = []
            prev = self.levels[-1]
            for i in range(0, len(prev), 2):
                if i + 1 < len(prev):
                    nxt.append(_merge_lists(prev[i], prev[i + 1]))
                else:
                    nxt.append(prev[i])
            self.levels.append(nxt)
            width *= 2

    def exists(self, lo: int, hi: int, qc: Interval) -> bool:
        """Any tuple in positions ``[lo, hi)`` with ``c ∩ qc ≠ ∅``?"""
        def visit(level: int, index: int, left: int, right: int) -> bool:
            if right <= lo or hi <= left:
                return False
            if lo <= left and right <= hi:
                return _some_c_intersects(self.levels[level][index], qc)
            mid = (left + right) // 2
            return (
                visit(level - 1, index * 2, left, mid)
                or visit(level - 1, index * 2 + 1, mid, right)
            )

        if self.n == 0:
            return False
        top = len(self.levels) - 1
        span = 1 << top
        return visit(top, 0, 0, span)


def _merge_lists(
    a: tuple[list[float], list[float]], b: tuple[list[float], list[float]]
) -> tuple[list[float], list[float]]:
    lefts: list[float] = []
    rights: list[float] = []
    ia = ib = 0
    la, pa = a
    lb, pb = b
    ra = _rights_from_prefix(pa)
    rb = _rights_from_prefix(pb)
    while ia < len(la) or ib < len(lb):
        take_a = ib >= len(lb) or (ia < len(la) and la[ia] <= lb[ib])
        if take_a:
            lefts.append(la[ia])
            rights.append(ra[ia])
            ia += 1
        else:
            lefts.append(lb[ib])
            rights.append(rb[ib])
            ib += 1
    prefix: list[float] = []
    best = float("-inf")
    for r in rights:
        best = max(best, r)
        prefix.append(best)
    return lefts, prefix


def _rights_from_prefix(prefix: list[float]) -> list[float]:
    # prefix maxima lose the raw values; reconstruct upper bounds that
    # preserve existence answers: using the prefix maximum at each
    # position is safe for OR-existence merging.
    return list(prefix)


def faqai_triangle_evaluate(db: Database) -> bool:
    """FAQ-AI-shaped triangle evaluation (Appendix F.1): sweep-join R
    and S on [B] (the quadratic bag), probe T through the pair index —
    ``O(N² log² N)`` overall, versus the reduction's ``Õ(N^1.5)``."""
    r = [(t[1], t) for t in db["R"].tuples]   # R(A,B) keyed by B
    s = [(t[0], t) for t in db["S"].tuples]   # S(B,C) keyed by B
    index = IntervalPairIndex([(t[0], t[1]) for t in db["T"].tuples])
    for r_tuple, s_tuple in sweep_join(r, s):
        if index.exists(r_tuple[0], s_tuple[1]):
            return True
    return False
