"""Segment-tree node identifiers: the one place their format is known.

A node of the paper's segment tree (Section 3) is named by a
``{0,1}``-string — the root is the empty string, the children of ``b``
are ``b + '0'`` and ``b + '1'``.  That string is the binary expansion of
the node's index in the heap layout of the complete tree (root ``1``,
children ``2v`` and ``2v + 1``) with the leading ``1`` dropped, so the
integer ``v = (1 << len(b)) | int(b, 2)`` *is* the node: :func:`node_id`
and :func:`bits` convert, and everything between the tree and the code
matrices of the forward reduction carries the integer.  The empty
string — the root, and an empty split part — is :data:`EMPTY` ``= 1``.

The forward reduction splits a node into ``i`` ordered, possibly empty
parts (the set ``𝔉(u, i)`` of Claim C.1): :func:`split_ids` gives that
family as one integer matrix from a cut plan memoized per
``(len(u), i)``; :func:`splits` is the same family on strings, in the
same order, for the paper-figure walk-throughs and the test oracles.
The backward reduction maps bitstrings to dyadic intervals via the
function ``F`` of Example 5.1 and to the explicit perfect-tree segments
of Appendix D (Figure 7).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator

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


def splits(u: str, parts: int) -> Iterator[tuple[str, ...]]:
    """All tuples ``(x_1, ..., x_parts)`` with ``x_1 ∘ ... ∘ x_parts = u``.

    Parts may be empty (the reduction relies on empty parts when two
    intervals share a segment-tree node).  For a string of length ``L``
    there are ``C(L + parts - 1, parts - 1)`` splits, which is
    ``O(log^(parts-1) |I|)`` for segment-tree bitstrings (Claim C.1).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    length = len(u)
    for cuts in combinations_with_replacement(range(length + 1), parts - 1):
        bounds = (0, *cuts, length)
        yield tuple(u[bounds[i]:bounds[i + 1]] for i in range(parts))


@lru_cache(maxsize=None)
def _cut_plan(length: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """How to cut any node of depth ``length`` into ``parts`` parts: per
    split (rows, in :func:`splits` order) and part (columns), the right
    shift that drops what follows the part and the part's own leading
    bit ``1 << len(part)``.  At most ``height * k`` plans exist per
    process, so the memo is unbounded."""
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
    ``(n_splits, parts)`` matrix of part ids, rows in the order
    :func:`splits` yields them.  Ids stay below ``2 << len(u)``."""
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


def perfect_tree_segment(u: str, total_depth: int) -> Interval:
    """``seg(u)`` in the modified perfect segment tree of Appendix D.

    Following the proof of Theorem 5.2 (Figure 7): ``seg(u) = [x, y]``
    where ``brep(x) = '1' ∘ u ∘ '0'^ℓ`` and ``brep(y) = '1' ∘ u ∘ '1'^ℓ``
    with ``ℓ = total_depth - |u|``.  Two such segments intersect iff one
    bitstring is a prefix of the other.
    """
    pad = total_depth - len(u)
    if pad < 0:
        raise ValueError(
            f"bitstring {u!r} longer than tree depth {total_depth}"
        )
    lo = int("1" + u + "0" * pad, 2)
    hi = int("1" + u + "1" * pad, 2)
    return Interval(lo, hi)
