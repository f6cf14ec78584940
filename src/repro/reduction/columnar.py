"""Columnar (NumPy) representation of transformed relations.

The forward reduction's derived rows are tuples over a tiny value
universe, so each relation is a dense ``uint32`` matrix — a
:class:`ColumnBlock` — with derived-row refcounts held as a parallel
``int64`` array in a :class:`ColumnarCounts`.  A column is one of three
kinds:

* :data:`COL_BITS` — an interval part: the segment-tree node id
  (:mod:`repro.intervals.bitstring`) stored verbatim.  No dictionary,
  and its exclusive bound (``2 << height`` of the variable's tree) is
  known without a scan;
* :data:`COL_CODE` — a point value, interned once in the artifact's one
  shared :class:`CodeBook`;
* :data:`COL_ID` — a provenance id, a small int stored verbatim.

Everything a reducer emits is such a block, and a block-backed
:class:`~repro.engine.relation.Relation` keeps it for life: evaluation,
cardinality statistics, delta patches and the cache serializer all
operate on the raw arrays — including arrays backed by an ``np.memmap``
of a cache entry, which is how warm workers serve reductions zero-copy —
and a consumer that asks for Python tuples gets a read-only decoded
view (code columns through the book, bits columns as the paper's
bitstrings) that leaves the arrays in place.

Delta maintenance stays in array space too:
:meth:`ColumnarCounts.adjust` locates one input tuple's derived rows in
the (lexicographically sorted) matrix with a packed-key
``searchsorted``, bumps the refcounts, splices in rows not yet present
and masks out rows whose count reaches zero.  The rule is
**copy-on-write**: a patch never stores into an existing array (it may
be a read-only view of a mapped cache file, which must never be
written) — it builds new arrays and swaps them in through
:meth:`ColumnBlock.replace_rows`.

Equality of cells is equality of values (the codebook and the node-id
format are both injective, and a variable has one kind wherever it
occurs), so joins compare ``uint32`` cells directly; :func:`pack_keys`
is the one place multi-column rows become comparable scalars, whatever
their width.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from ..intervals.bitstring import bits

__all__ = [
    "CODE_DTYPE",
    "COUNT_DTYPE",
    "COL_BITS",
    "COL_CODE",
    "COL_ID",
    "CodeBook",
    "ColumnBlock",
    "ColumnarCounts",
    "KEY_LIMIT",
    "decode_cells",
    "distinct_rows",
    "encode_rows",
    "pack_keys",
]

#: Per-cell dtype of every code matrix.  Interval parts, point codes
#: and provenance ids all fit: the codebook refuses to grow past the
#: uint32 code space and a segment tree refuses a height whose node ids
#: would.
CODE_DTYPE = np.dtype(np.uint32)

#: Refcount dtype — exact integer counts (``np.bincount`` sums are
#: exact well below 2**53 and are cast back immediately).
COUNT_DTYPE = np.dtype(np.int64)

#: Column kinds: ``bits`` cells are segment-tree node ids (decode to the
#: node's bitstring), ``code`` cells are :class:`CodeBook` codes (decode
#: via the book), ``id`` cells are small non-negative ints stored
#: verbatim (provenance ids — already integers, interning them would be
#: a pointless indirection).
COL_BITS = "bits"
COL_CODE = "code"
COL_ID = "id"

#: Packed row keys stay below this (62 bits, clear of the ``int64``
#: sign); :func:`pack_keys` re-ranks before a digit would cross it.
KEY_LIMIT = 1 << 62


class CodeBook:
    """A shared value ↔ ``uint32`` dictionary encoding of point values.

    One book serves every column block of one reduction artifact, so a
    code is meaningful across relations: two cells holding the same
    code hold the same value, which is what lets the columnar join path
    compare codes instead of decoded tuples.  Values must be hashable
    (they are set members already); insertion order is the code order,
    so serializing ``values`` and rebuilding the index reproduces the
    exact same assignment.
    """

    __slots__ = ("values", "_index")

    def __init__(self, values: Iterable[Hashable] = ()):
        self.values: list = list(values)
        self._index: dict = {v: i for i, v in enumerate(self.values)}

    def __len__(self) -> int:
        return len(self.values)

    def lookup(self, value: Hashable) -> int | None:
        """The code for ``value`` if it has one — never interns.  An
        absent value proves no row of the artifact contains it, which
        is all a delete needs to know."""
        return self._index.get(value)

    def code(self, value: Hashable) -> int:
        """The code for ``value``, interning it on first sight."""
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.values)
            if idx >= 2**32:  # pragma: no cover - 4e9 distinct values
                raise OverflowError("codebook exceeds the uint32 code space")
            self.values.append(value)
            self._index[value] = idx
        return idx

    def encode_column(
        self, values: Iterable[Hashable], count: int = -1
    ) -> np.ndarray:
        """One value sequence as a ``uint32`` code array."""
        code = self.code
        return np.fromiter(
            (code(v) for v in values), dtype=CODE_DTYPE, count=count
        )

def decode_cells(kind: str, cells: list[int], book: CodeBook | None) -> list:
    """One column's raw cells (``ndarray.tolist()``) as values."""
    if kind == COL_CODE:
        values = book.values
        return [values[c] for c in cells]
    if kind == COL_BITS:
        return [bits(c) for c in cells]
    return cells


class ColumnBlock:
    """One relation's rows as an ``(n, width)`` ``uint32`` code matrix.

    ``kinds[j]`` says how column ``j`` decodes (:func:`decode_cells`)
    and ``bounds[j]``, where not ``None``, is an exclusive bound on its
    cells that holds for every matrix the block will ever take — what a
    :data:`COL_BITS` column gets from its segment tree.  The one decoded
    form a block retains is the frozen set a relation serves for
    ``.tuples`` (:meth:`tuple_set`, memoized per matrix); :meth:`rows`
    decodes on demand and keeps nothing.  The matrix may be a read-only
    ``np.memmap`` view of a cache entry — nothing here writes into it:
    the one mutation, :meth:`replace_rows`, swaps in a whole new
    matrix.

    Blocks built by the forward reduction hold *distinct* rows in
    lexicographic order (what its packed-key dedup emits);
    :meth:`ColumnarCounts.adjust` relies on that order to find rows by
    binary search and preserves it.
    """

    __slots__ = ("codes", "kinds", "book", "bounds", "version", "_tuple_set")

    def __init__(
        self,
        codes: np.ndarray,
        kinds: Sequence[str],
        book: CodeBook | None,
        bounds: Sequence[int | None] | None = None,
    ):
        self.codes = codes
        self.kinds = tuple(kinds)
        self.book = book
        self.bounds = (
            (None,) * len(self.kinds) if bounds is None else tuple(bounds)
        )
        self.version = 0  # what ``Relation.version`` serves for a block
        self._tuple_set: frozenset[tuple] | None = None

    def replace_rows(self, codes: np.ndarray) -> None:
        """Swap in a new code matrix of the same width — the block's
        single mutation entry point.  Advances :attr:`version` and
        drops the decoded-row memo, so no consumer is ever served the
        previous matrix's rows."""
        if codes.ndim != 2 or codes.shape[1] != self.codes.shape[1]:
            raise ValueError(
                f"replacement matrix of shape {codes.shape} does not "
                f"match block width {self.codes.shape[1]}"
            )
        self.codes = codes
        self.version += 1
        self._tuple_set = None

    @property
    def row_count(self) -> int:
        return int(self.codes.shape[0])

    @property
    def width(self) -> int:
        return int(self.codes.shape[1])

    def column(self, j: int) -> np.ndarray:
        return self.codes[:, j]

    def column_radix(self, j: int) -> int:
        """An exclusive upper bound on column ``j``'s cell values — the
        mixed radix :func:`pack_keys` needs.  Dictionary-encoded
        columns answer in O(1): every code is an index into the shared
        book, so the book's domain size bounds them all; so do columns
        with a declared bound (node ids).  Verbatim id columns need one
        max scan."""
        if self.kinds[j] == COL_CODE and self.book is not None:
            return len(self.book)
        if self.bounds[j] is not None:
            return self.bounds[j]
        col = self.codes[:, j]
        return int(col.max()) + 1 if col.size else 1

    def distinct_count(self, j: int) -> int:
        if self.codes.shape[0] == 0:
            return 0
        return int(np.unique(self.codes[:, j]).size)

    def row(self, i: int) -> tuple:
        """Decode the single row ``i`` — O(width), no memoization, and
        crucially no whole-column decode: samplers (e.g. SQL column-kind
        inference) get one tuple without the block's consumers losing
        the arrays."""
        return tuple(
            decode_cells(kind, [int(self.codes[i, j])], self.book)[0]
            for j, kind in enumerate(self.kinds)
        )

    def rows(self) -> list[tuple]:
        """The decoded rows, in matrix order — each column decoded once
        through the book, nothing retained."""
        columns = [
            decode_cells(kind, self.codes[:, j].tolist(), self.book)
            for j, kind in enumerate(self.kinds)
        ]
        if columns:
            return list(zip(*columns))
        return [()] * self.row_count

    def tuple_set(self) -> frozenset[tuple]:
        """The decoded rows as a set (memoized, immutable: the arrays
        stay the source of truth)."""
        if self._tuple_set is None:
            self._tuple_set = frozenset(self.rows())
        return self._tuple_set


class ColumnarCounts:
    """Derived-row refcounts as an ``int64`` array parallel to a
    :class:`ColumnBlock`'s rows: how many distinct input tuples derive
    each row, which is what lets a delete remove a derived row only
    with its last deriving tuple.  Delta patches go through
    :meth:`adjust`; :meth:`items` is the read-only decoded view
    (``result_digest`` and the tests iterate it)."""

    __slots__ = ("block", "array")

    def __init__(self, block: ColumnBlock, array: np.ndarray):
        self.block = block
        self.array = array

    def adjust(self, rows: np.ndarray, step: int) -> None:
        """Add ``step`` to the refcount of every row of ``rows`` — the
        *distinct* code rows one input tuple derives, ``+1`` for an
        insert and ``-1`` for a delete.  Rows not yet in the block are
        spliced in at their sorted position (insert) or ignored
        (delete); rows whose count reaches zero are dropped.

        The block's rows must be distinct and lexicographically sorted
        (see :class:`ColumnBlock`); both properties are preserved.  Rows
        are located by packing each row into one order-preserving
        ``int64`` key (:func:`pack_keys`) and binary-searching the
        block's keys — whole-array operations only, never a Python loop
        over the block.

        Copy-on-write: the current arrays (possibly read-only views of
        a mapped cache entry) are never stored into; the block takes
        the result through :meth:`ColumnBlock.replace_rows`.
        """
        if rows.shape[0] == 0:
            return
        codes = self.block.codes
        columns = range(codes.shape[1])
        if columns:
            radices = [
                int(max(a, b)) + 1
                for a, b in zip(
                    codes.max(axis=0, initial=0).tolist(),
                    rows.max(axis=0).tolist(),
                )
            ]
            (keys, wanted), _ = pack_keys(
                [[codes[:, j] for j in columns], [rows[:, j] for j in columns]],
                radices,
            )
        else:
            # a zero-arity variant holds at most the one row (): every
            # key is equal
            keys = np.zeros(codes.shape[0], dtype=np.int64)
            wanted = np.zeros(rows.shape[0], dtype=np.int64)
        at = np.searchsorted(keys, wanted)
        present = at < keys.size
        present[present] = keys[at[present]] == wanted[present]
        array = self.array.copy()
        array[at[present]] += step
        if step > 0:
            absent = ~present
            if absent.any():
                # np.insert places equal positions in the given order,
                # so feed it the new rows sorted among themselves
                order = np.argsort(wanted[absent], kind="stable")
                positions = at[absent][order]
                fresh = rows[absent][order]
                codes = np.insert(codes, positions, fresh, axis=0)
                array = np.insert(array, positions, step)
        else:
            alive = array > 0
            if not alive.all():
                codes = codes[alive]
                array = array[alive]
        self.block.replace_rows(codes)
        self.array = array

    def items(self) -> Iterator[tuple[tuple, int]]:
        """``(decoded row, refcount)`` pairs, in matrix order."""
        return zip(self.block.rows(), self.array.tolist())


def encode_rows(
    rows: Iterable[Sequence[Hashable]],
    kinds: Sequence[str],
    book: CodeBook,
) -> ColumnBlock:
    """Python rows as a :class:`ColumnBlock` over ``book``, in the
    given order: :data:`COL_CODE` columns are interned through the
    book, :data:`COL_ID` columns (small non-negative ints) are stored
    verbatim."""
    rows = list(rows)
    codes = np.empty((len(rows), len(kinds)), dtype=CODE_DTYPE)
    for j, (kind, column) in enumerate(zip(kinds, zip(*rows))):
        if kind == COL_CODE:
            codes[:, j] = book.encode_column(column, count=len(rows))
        else:
            codes[:, j] = column
    return ColumnBlock(codes, kinds, book)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a code matrix in lexicographic order — the
    order a :class:`ColumnBlock` promises :meth:`ColumnarCounts.adjust`
    — and each one's multiplicity as :data:`COUNT_DTYPE`.  Rows are
    compared as the scalar keys of :func:`pack_keys`, whatever their
    width."""
    n, width = rows.shape
    if n == 0 or width == 0:
        # a zero-arity relation holds at most the one row ()
        return rows[: min(n, 1)], np.full(min(n, 1), n, dtype=COUNT_DTYPE)
    columns = [rows[:, j] for j in range(width)]
    (keys,), _ = pack_keys([columns], [int(c.max()) + 1 for c in columns])
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return rows[first], counts.astype(COUNT_DTYPE, copy=False)


def pack_keys(
    sides: Sequence[Sequence[np.ndarray]], radices: Sequence[int]
) -> tuple[list[np.ndarray], int]:
    """Fold multi-column rows into one comparable ``int64`` key per
    row — jointly for every side of a join or search, so that equal
    keys mean equal rows and key order is lexicographic row order
    *across* sides.

    ``sides[s][j]`` is column ``j`` of side ``s`` (every side has the
    same columns, at least one); ``radices[j]`` is an exclusive bound
    on column ``j``'s cells on every side.  Columns are folded left to
    right as mixed-radix digits.  When the next digit would push the
    key space past 62 bits, the running keys of all sides are first
    replaced by their joint dense ranks (one ``np.unique`` over their
    concatenation — order-preserving, and at most the total row count),
    so a key needs ``log2(rows) + log2(radix)`` bits whatever the
    width.  Returns the per-side keys and an exclusive bound on them.
    """
    keys = [side[0].astype(np.int64) for side in sides]
    bound = max(int(radices[0]), 1)
    for j in range(1, len(radices)):
        radix = max(int(radices[j]), 1)
        if bound * radix > KEY_LIMIT:
            distinct, ranks = np.unique(
                np.concatenate(keys), return_inverse=True
            )
            bound = max(int(distinct.size), 1)
            if bound * radix > KEY_LIMIT:  # pragma: no cover - 2**30 rows
                raise OverflowError("row keys exceed 62 bits after ranking")
            keys = np.split(ranks, np.cumsum([k.size for k in keys[:-1]]))
        keys = [k * radix + side[j] for k, side in zip(keys, sides)]
        bound *= radix
    return keys, bound
