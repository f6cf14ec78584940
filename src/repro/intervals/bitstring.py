"""Segment-tree node identifiers: the one place their format is known.

A node of the paper's segment tree (Section 3) is named by a
``{0,1}``-string — the root is the empty string, the children of ``b``
are ``b + '0'`` and ``b + '1'``.  That string is the binary expansion of
the node's index in the heap layout of the complete tree (root ``1``,
children ``2v`` and ``2v + 1``) with the leading ``1`` dropped, so the
integer ``v = (1 << len(b)) | int(b, 2)`` *is* the node, and every
module outside this one carries only the integer.  :func:`node_id` and
:func:`bits` convert, for the tests and the figure benches that print
or pin the paper's strings.  The empty string — the root, and an empty
split part — is :data:`EMPTY` ``= 1``.

The forward reduction splits a node into ``i`` ordered, possibly empty
parts (the set ``𝔉(u, i)`` of Claim C.1): :func:`split_ids` gives that
family as one integer matrix from a cut plan memoized per
``(len(u), i)``.  The backward reduction maps a node to the explicit
perfect-tree segment of Appendix D (Figure 7, :func:`perfect_tree_segment`);
:func:`dyadic_interval` is the function ``F`` of Example 5.1 on strings.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .interval import Interval

#: The id of the empty bitstring: the root, and an empty split part.
EMPTY = 1


def node_id(b: str) -> int:
    """The integer form of bitstring ``b``: ``(1 << len(b)) | int(b, 2)``."""
    return int("1" + b, 2)


def bits(v: int) -> str:
    """The bitstring of node id ``v`` (inverse of :func:`node_id`)."""
    return format(v, "b")[1:]


def is_prefix(u: str, v: str) -> bool:
    """True iff ``u`` is a prefix of ``v`` — equivalently, the node ``u``
    is an ancestor of node ``v``, inclusive (Property 3.2(1))."""
    return v.startswith(u)


@lru_cache(maxsize=None)
def _cut_plan(length: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """How to cut any node of depth ``length`` into ``parts`` parts: per
    split (rows, cuts in ``combinations_with_replacement`` order) and
    part (columns), the right shift that drops what follows the part and
    the part's own leading bit ``1 << len(part)``.  At most
    ``height * k`` plans exist per process, so the memo is unbounded."""
    cuts = list(combinations_with_replacement(range(length + 1), parts - 1))
    bounds = np.empty((len(cuts), parts + 1), dtype=np.int64)
    bounds[:, 0] = 0
    bounds[:, 1:-1] = np.array(cuts, dtype=np.int64).reshape(len(cuts), -1)
    bounds[:, -1] = length
    shifts = length - bounds[:, 1:]
    tops = np.int64(1) << np.diff(bounds, axis=1)
    shifts.setflags(write=False)
    tops.setflags(write=False)
    return shifts, tops


def split_ids(v: int, parts: int) -> np.ndarray:
    """``𝔉(u, parts)`` for the node with id ``v`` as an
    ``(n_splits, parts)`` matrix of part ids, one row per tuple
    ``(x_1, ..., x_parts)`` with ``x_1 ∘ ... ∘ x_parts = u`` (parts may
    be empty: the reduction relies on empty parts when two intervals
    share a node).  Ids stay below ``2 << len(u)``."""
    shifts, tops = _cut_plan(v.bit_length() - 1, parts)
    return ((v >> shifts) & (tops - 1) | tops).astype(np.uint32)


def count_splits(length: int, parts: int) -> int:
    """``|𝔉(u, parts)|`` for ``|u| = length``: the number of ordered
    splits into possibly-empty parts."""
    return comb(length + parts - 1, parts - 1)


def dyadic_fraction(b: str) -> tuple[Fraction, Fraction]:
    """The dyadic interval ``F(b) = [x, y)`` of Example 5.1 as exact
    fractions: ``F('') = [0, 1)``, ``F(b + '0')`` and ``F(b + '1')`` are
    the first and second halves of ``F(b)``."""
    lo = Fraction(0)
    width = Fraction(1)
    for ch in b:
        width /= 2
        if ch == "1":
            lo += width
        elif ch != "0":
            raise ValueError(f"not a bitstring: {b!r}")
    return lo, lo + width


def dyadic_interval(b: str, max_length: int) -> Interval:
    """``F(b)`` scaled to the integer grid of denominator ``2^max_length``
    and closed on the right: ``[x * 2^L, y * 2^L - 1]``.

    For bitstrings of length at most ``max_length``, two scaled dyadic
    intervals intersect iff one bitstring is a prefix of the other, which
    is exactly the property the backward reduction needs.
    """
    if len(b) > max_length:
        raise ValueError(f"bitstring {b!r} longer than max_length={max_length}")
    lo, hi = dyadic_fraction(b)
    scale = 1 << max_length
    left = int(lo * scale)
    right = int(hi * scale) - 1
    return Interval(left, right)


def perfect_tree_segment(v: int, total_depth: int) -> Interval:
    """``seg(u)`` in the modified perfect segment tree of Appendix D, for
    the node with id ``v``.

    Following the proof of Theorem 5.2 (Figure 7): ``seg(u) = [x, y]``
    where ``brep(x) = '1' ∘ u ∘ '0'^ℓ`` and ``brep(y) = '1' ∘ u ∘ '1'^ℓ``
    with ``ℓ = total_depth - |u|`` — that is ``v`` shifted left by ``ℓ``,
    the shifted-in bits all zero or all one.  Two such segments
    intersect iff one node is an ancestor of the other.
    """
    pad = total_depth - (v.bit_length() - 1)
    if pad < 0:
        raise ValueError(
            f"node {bits(v)!r} deeper than the tree depth {total_depth}"
        )
    return Interval(v << pad, ((v + 1) << pad) - 1)
