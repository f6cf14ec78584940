"""Memoized interval encodings for the forward reduction.

The per-tuple body of Definition 4.9 concatenates, per interval
variable at position ``i``, the splits of the variable's canonical-
partition nodes (CP variant, ``i < k``) or of the leaf of its left
endpoint (leaf variant, ``i = k``).  Both inputs of that computation
are heavily repeated in practice:

* the split family ``𝔉(u, i)`` depends only on the node bitstring and
  the position (Claim C.1) — it is independent of which interval, tuple,
  or even segment tree produced the node.  It is memoized globally by
  :func:`repro.intervals.bitstring.split_tuples`, which also *interns*
  the part-tuples so repeated encodings share objects;
* the full encoding of an interval *value* depends only on
  ``(variable, value, i, nonempty_last)`` for a fixed set of segment
  trees — and real interval workloads (temporal validity windows,
  spatial MBRs) repeat values across tuples and atoms constantly.

An :class:`EncodingStore` owns the second memo for one tree set.  It is
created by :class:`~repro.reduction.forward.ForwardReducer`, shared by
every variant relation it builds (plain and factored encodings), carried
on the :class:`~repro.reduction.forward.ForwardReductionResult` so the
delta-patch path re-uses the very same encodings.  The memo is pure
and never persisted: a cache-loaded artifact gets a fresh store over
its own trees and codebook (:mod:`repro.core.cache_format`) and patches
just as fast after its first few lookups.

Memoization never changes *what* is computed — only how often.  The
differential digest tests assert the memoized reduction is bit-identical
to a naive per-tuple loop that re-walks the trees for every tuple.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..intervals.bitstring import split_tuples
from ..intervals.interval import Interval
from ..intervals.segment_tree import SegmentTree
from .columnar import CODE_DTYPE, CodeBook

__all__ = ["EncodingStore"]


class EncodingStore:
    """Per-tree-set memo of interval part encodings.

    One store is valid for exactly one assignment of segment trees (and
    atom counts ``k``) to interval variables — i.e. one forward
    reduction and its patched descendants.  Sharing a store across
    reductions over *different* databases would serve stale encodings;
    callers never do (the store travels with its reduction artifact).
    """

    __slots__ = (
        "trees",
        "k",
        "_encodings",
        "hits",
        "misses",
        "codebook",
        "_code_arrays",
    )

    def __init__(
        self, trees: Mapping[str, SegmentTree], k: Mapping[str, int]
    ):
        self.trees = dict(trees)
        self.k = dict(k)
        # (variable, value, i, nonempty_last) -> tuple of part-tuples
        self._encodings: dict[tuple, tuple[tuple[str, ...], ...]] = {}
        self.hits = 0
        self.misses = 0
        #: the shared value <-> uint32 dictionary the vectorized kernel
        #: interns encodings through — one book per reduction artifact
        #: (attached by the reducer, or by the v5 cache loader so later
        #: interning stays consistent with the loaded code matrices)
        self.codebook: CodeBook | None = None
        # (variable, value, i, nonempty_last) -> (n_options, i) uint32
        self._code_arrays: dict[tuple, np.ndarray] = {}

    def interval_encodings(
        self, variable: str, value: Interval, i: int, nonempty_last: bool
    ) -> tuple[tuple[str, ...], ...]:
        """All ``(X1..Xi)`` bitstring tuples for one interval value
        against the variable's segment tree — CP-variant splits for
        ``i < k``, leaf-variant splits for ``i = k`` (Definition 4.9),
        with the Appendix G non-emptiness constraint applied when
        requested.  Memoized: the first call per distinct key walks the
        tree and enumerates splits; every later call is a dict hit."""
        key = (variable, value, i, nonempty_last)
        cached = self._encodings.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        tree = self.trees[variable]
        if i < self.k[variable]:
            nodes = tree.canonical_partition(value)
        else:
            nodes = [tree.leaf_of_interval(value)]
        out: list[tuple[str, ...]] = []
        prune_empty_last = nonempty_last and i > 1
        for node in nodes:
            for split in split_tuples(node, i):
                if prune_empty_last and split[-1] == "":
                    continue
                out.append(split)
        result = tuple(out)
        self._encodings[key] = result
        return result

    def encoded_parts(
        self,
        variable: str,
        value: Interval,
        i: int,
        nonempty_last: bool,
        intern: bool = True,
    ) -> np.ndarray:
        """The same encodings as :meth:`interval_encodings`, interned
        through the store's :class:`~repro.reduction.columnar.CodeBook`
        into an ``(n_options, i)`` ``uint32`` code matrix — the unit the
        vectorized kernel tiles.  Memoized per key like the tuple form;
        row order matches the tuple form exactly.

        ``intern=False`` (the delete path) only looks codes up: an
        option with a part the book has never seen cannot occur in any
        row of the artifact and is left out, and the book does not
        grow."""
        key = (variable, value, i, nonempty_last)
        arr = self._code_arrays.get(key)
        if arr is not None:
            self.hits += 1
            return arr
        options = self.interval_encodings(variable, value, i, nonempty_last)
        book = self.codebook
        if book is None:
            book = self.codebook = CodeBook()
        code = book.code if intern else book.lookup
        coded = [[code(part) for part in option] for option in options]
        if not intern:
            coded = [row for row in coded if None not in row]
        arr = np.array(coded, dtype=CODE_DTYPE).reshape(len(coded), i)
        if len(coded) == len(options):
            self._code_arrays[key] = arr
        return arr

    def stats(self) -> dict[str, int]:
        """Memo accounting: distinct encodings held, hit/miss counts."""
        return {
            "entries": len(self._encodings),
            "hits": self.hits,
            "misses": self.misses,
        }
