"""Columnar (NumPy) representation of transformed relations.

The forward reduction's derived rows are tuples over a tiny value
universe: interval part encodings are short bitstrings served from one
:class:`~repro.reduction.encoding_store.EncodingStore`, point values
repeat across tuples, and provenance ids are small ints.  That makes
the whole transformed database naturally *dictionary-encodable*: one
shared :class:`CodeBook` interns every distinct value once and each
relation becomes a dense ``uint32`` code matrix — a :class:`ColumnBlock`
— with derived-row refcounts held as a parallel ``int64`` array in a
:class:`ColumnarCounts`.

Nothing downstream is forced to change: a columnar
:class:`~repro.engine.relation.Relation` *materializes* its Python
tuple set lazily on first access (decoding each column once through the
codebook), and :class:`ColumnarCounts` is a ``MutableMapping`` that
behaves exactly like the ``dict[row, count]`` it replaces.  Until such a
touch, Boolean evaluation, cardinality statistics and the v5 cache
serializer all operate on the raw arrays — including arrays backed by
an ``np.memmap`` of a cache entry, which is how warm workers serve
reductions zero-copy.

Delta maintenance stays in array space too:
:meth:`ColumnarCounts.adjust` locates one input tuple's derived code
rows in the (lexicographically sorted) code matrix with a packed-key
``searchsorted``, bumps the refcounts, splices in rows not yet present
and masks out rows whose count reaches zero.  The rule is
**copy-on-write**: a patch never stores into an existing array (it may
be a read-only view of a mapped cache file, which must never be
written) — it builds new arrays and swaps them in through
:meth:`ColumnBlock.replace_rows`, so the relation stays columnar and
its refcounts stay an array.  Only a consumer that mutates the mapping
facade key by key (the row-backed patch path of an already materialized
variant) degrades a :class:`ColumnarCounts` to a plain dict.

Equality of codes is equality of values (the codebook is injective), so
columnar joins compare ``uint32`` codes directly; decoding happens only
when actual tuples are demanded.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "CODE_DTYPE",
    "COUNT_DTYPE",
    "COL_CODE",
    "COL_ID",
    "CodeBook",
    "ColumnBlock",
    "ColumnarCounts",
    "pack_key_columns",
]

#: Per-cell dtype of every code matrix.  Interval encodings, point
#: values and provenance ids all fit comfortably: the codebook refuses
#: to grow past the uint32 code space.
CODE_DTYPE = np.dtype(np.uint32)

#: Refcount dtype — exact integer counts (``np.bincount`` sums are
#: exact well below 2**53 and are cast back immediately).
COUNT_DTYPE = np.dtype(np.int64)

#: Column kinds: ``code`` cells are :class:`CodeBook` codes (decode via
#: the book), ``id`` cells are small non-negative ints stored verbatim
#: (provenance ids — already integers, interning them would be a
#: pointless indirection).
COL_CODE = "code"
COL_ID = "id"


class CodeBook:
    """A shared value ↔ ``uint32`` dictionary encoding.

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

    def decode_column(self, codes: np.ndarray) -> list:
        values = self.values
        return [values[c] for c in codes.tolist()]


class ColumnBlock:
    """One relation's rows as an ``(n, width)`` ``uint32`` code matrix.

    ``kinds[j]`` says how column ``j`` decodes (:data:`COL_CODE` through
    the shared book, :data:`COL_ID` verbatim).  The decoded row list is
    memoized: a block decodes each column exactly once no matter how
    many consumers (relation tuple set, refcount mapping, digests) ask
    for rows.  The matrix may be a read-only ``np.memmap`` view of a
    cache entry — nothing here writes into it: the one mutation,
    :meth:`replace_rows`, swaps in a whole new matrix.

    Blocks built by the forward reduction hold *distinct* rows in
    lexicographic order (what its packed-key dedup emits);
    :meth:`ColumnarCounts.adjust` relies on that order to find rows by
    binary search and preserves it.
    """

    __slots__ = ("codes", "kinds", "book", "_rows")

    def __init__(
        self,
        codes: np.ndarray,
        kinds: Sequence[str],
        book: CodeBook | None,
    ):
        self.codes = codes
        self.kinds = tuple(kinds)
        self.book = book
        self._rows: list[tuple] | None = None

    def replace_rows(self, codes: np.ndarray) -> None:
        """Swap in a new code matrix of the same width — the block's
        single mutation entry point.  Drops the decoded-row memo, so no
        consumer is ever served the previous matrix's rows."""
        if codes.ndim != 2 or codes.shape[1] != self.codes.shape[1]:
            raise ValueError(
                f"replacement matrix of shape {codes.shape} does not "
                f"match block width {self.codes.shape[1]}"
            )
        self.codes = codes
        self._rows = None

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
        mixed radix :func:`pack_key_columns` needs.  Dictionary-encoded
        columns answer in O(1): every code is an index into the shared
        book, so the book's domain size bounds them all.  Verbatim id
        columns need one max scan."""
        if self.kinds[j] == COL_CODE and self.book is not None:
            return len(self.book)
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
        out = []
        for j, kind in enumerate(self.kinds):
            c = int(self.codes[i, j])
            out.append(self.book.values[c] if kind == COL_CODE else c)
        return tuple(out)

    def rows(self) -> list[tuple]:
        """The decoded rows, in matrix order (memoized)."""
        if self._rows is None:
            n = self.row_count
            columns: list[list] = []
            for j, kind in enumerate(self.kinds):
                raw = self.codes[:, j].tolist()
                if kind == COL_CODE:
                    values = self.book.values
                    columns.append([values[c] for c in raw])
                else:
                    columns.append(raw)
            if columns:
                self._rows = list(zip(*columns))
            else:
                self._rows = [()] * n
        return self._rows

    def tuple_set(self) -> set[tuple]:
        return set(self.rows())


class ColumnarCounts(MutableMapping):
    """Derived-row refcounts as an ``int64`` array parallel to a
    :class:`ColumnBlock`'s rows.

    Read-only consumers (the ``result_digest`` oracle iterates
    :meth:`items`) never build a dict.  Delta patches of a columnar
    variant go through :meth:`adjust` and stay in array form; only the
    per-key ``MutableMapping`` mutators (used to patch a variant whose
    relation has already materialized) turn the mapping into a plain
    dict, once, after which it behaves identically to the
    ``dict[row, count]`` it replaces.  Pickling always yields a plain
    dict — array form is an in-process/v5-cache optimization, not a
    wire format.
    """

    __slots__ = ("block", "array", "_dict")

    def __init__(self, block: ColumnBlock, array: np.ndarray):
        self.block = block
        self.array = array
        self._dict: dict[tuple, int] | None = None

    @property
    def materialized(self) -> bool:
        return self._dict is not None

    def _materialize(self) -> dict[tuple, int]:
        if self._dict is None:
            self._dict = dict(zip(self.block.rows(), self.array.tolist()))
        return self._dict

    def replace_rows(self, codes: np.ndarray, array: np.ndarray) -> None:
        """Swap in a new code matrix and its parallel refcount array
        together (the block drops its decoded-row memo)."""
        if self._dict is not None:
            raise ValueError("refcounts have materialized into a dict")
        if array.shape != (codes.shape[0],):
            raise ValueError("refcount array is not parallel to the rows")
        self.block.replace_rows(codes)
        self.array = array

    def adjust(self, rows: np.ndarray, step: int) -> bool:
        """Add ``step`` to the refcount of every row of ``rows`` — the
        *distinct* code rows one input tuple derives, ``+1`` for an
        insert and ``-1`` for a delete.  Rows not yet in the block are
        spliced in at their sorted position (insert) or ignored
        (delete); rows whose count reaches zero are dropped.

        The block's rows must be distinct and lexicographically sorted
        (see :class:`ColumnBlock`); both properties are preserved.  Rows
        are located by packing each row into one mixed-radix ``int64``
        key and binary-searching the block's keys — whole-array
        operations only, never a Python loop over the block.  Returns
        ``False``, having changed nothing, when the keys do not fit 64
        bits; the caller then patches the decoded rows instead.

        Copy-on-write: the current arrays (possibly read-only views of
        a mapped cache entry) are never stored into; the result goes in
        through :meth:`replace_rows`.
        """
        if rows.shape[0] == 0:
            return True
        codes = self.block.codes
        columns = range(codes.shape[1])
        radices = [
            int(max(a, b)) + 1
            for a, b in zip(
                codes.max(axis=0, initial=0).tolist(),
                rows.max(axis=0).tolist(),
            )
        ]
        keys = pack_key_columns([codes[:, j] for j in columns], radices)
        if keys is None:
            return False
        wanted = pack_key_columns([rows[:, j] for j in columns], radices)
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
        self.replace_rows(codes, array)
        return True

    def __getitem__(self, key):
        return self._materialize()[key]

    def __setitem__(self, key, value):
        self._materialize()[key] = value

    def __delitem__(self, key):
        del self._materialize()[key]

    def __iter__(self):
        if self._dict is not None:
            return iter(self._dict)
        return iter(self.block.rows())

    def __len__(self) -> int:
        if self._dict is not None:
            return len(self._dict)
        return self.block.row_count

    def items(self):
        if self._dict is not None:
            return self._dict.items()
        return zip(self.block.rows(), self.array.tolist())


def pack_key_columns(
    columns: Sequence[np.ndarray], radices: Sequence[int]
) -> np.ndarray | None:
    """Fold multi-column join keys into one comparable ``int64`` array.

    Codes from one shared :class:`CodeBook` are directly comparable, so
    a mixed-radix fold over per-column code ranges gives an injective
    scalar key — provided the radix product fits ``int64`` (returns
    ``None`` otherwise and the caller falls back to tuples).  The
    radices must be shared by both sides of a join (max code across both
    arrays, plus one), so equal packed keys mean equal value tuples.
    """
    total = 1
    for radix in radices:
        total *= max(int(radix), 1)
        if total > 2**62:
            return None
    packed = columns[0].astype(np.int64)
    for col, radix in zip(columns[1:], radices[1:]):
        packed = packed * int(radix) + col.astype(np.int64)
    return packed
