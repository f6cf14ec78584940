"""The EJ evaluation engine: semijoin sweeps, counting DP, generic
join, bag materialisation and the full reducer on code arrays.

Transformed relations are ``uint32`` code matrices over one shared
:class:`~repro.reduction.columnar.CodeBook`; code equality is value
equality, so everything the engine does runs on the codes and
evaluates warm, memmap-loaded reductions without materializing a Python
tuple:

* :func:`columnar_yannakakis_boolean` — the bottom-up semijoin sweep of
  Yannakakis' algorithm [35] on survivor masks.  Per join-tree edge the
  shared columns are folded into one comparable ``int64`` key per row
  and the parent's mask is intersected with an ``np.isin`` membership
  test against the child's surviving keys (:func:`_semijoin_mask` — the
  bottom-up half of the full reducer below); the query is true iff every
  root keeps a surviving row, and the sweep stops at the first emptied
  mask.

* :func:`columnar_yannakakis_count` — the join-tree counting DP with
  per-node extension counts held as arrays.  Each bottom-up message is
  one vectorized group-by: the edge's shared code columns are folded
  into ``int64`` keys (radices straight from the shared codebook's
  domain size — no column rescans), child counts are aggregated per key
  with ``np.bincount`` (small key spaces) or a stable ``argsort`` +
  ``np.add.reduceat`` (large), and the aggregate is broadcast-multiplied
  onto the parent rows through ``searchsorted`` lookups.  Counts are
  ``int64`` while a running bound says they fit and Python ints
  (``dtype=object`` arrays on the sort path) beyond, so the answer is
  exact at any magnitude.

* :func:`generic_batch_count` / ``_boolean`` and
  :func:`generic_join_relation` — the worst-case optimal join [27, 34]
  on sorted arrays.  Each atom's rows are sorted in the global variable
  order; the distinct prefixes of every length are the levels of a
  flattened trie in which the children of a prefix are one contiguous
  key range, found by ``searchsorted``; the atom's block memoizes them
  per projection.  A batch of joins over one core (the generic-join
  disjuncts of one reduction with equal shared variables, atom by atom)
  runs as one join: each atom's tries are stacked under a leading
  disjunct level δ, each join's keys shifted into its own range below
  its δ and a level stacked when the traversal first reaches it, so one
  traversal visits every join (:class:`_Sorted`, :class:`_Stack`);
  ``generic_join_count`` / ``_boolean`` are the batch of one, which
  reads its memoized tries as they are.  Counting
  and materialisation run the join one level at a time over the whole
  frontier of partial assignments (:func:`_levelwise_join`); the
  Boolean form walks the same state depth-first, δ by δ, and stops at
  the first witness.  Count and Boolean join only the atoms' *shared*
  columns (variables of two or more atoms): a private variable — every
  provenance id — is existential for the Boolean form and summed out by
  the count, which weights each core assignment by the run lengths its
  atoms' sorts found (how many rows extend it); an atom with no shared
  column weights its δ by its row count.

* :func:`columnar_materialise_bags` — phase 1 of the ``decomposition``
  strategy (Appendix A.2.1): every bag of a tree decomposition as the
  level-wise join of the projections ``π_{bag ∩ vars(e)} R_e``, a
  projection being a column slice that the sort deduplicates.  The bags
  come back block-backed over the atoms' own codebook, so phase 2 takes
  the Yannakakis kernels above and a cyclic disjunct is answered
  without decoding a row.  At each level every frontier row is expanded
  from its own narrowest candidate range and filtered by membership in
  the other atoms, so a row costs its smallest candidate set; the
  frontier is the join of the atoms' projections onto the variables
  bound so far and stays within their AGM bound, where a fixed pivot
  atom — a pairwise join — is quadratically larger on skewed inputs.

* :func:`columnar_yannakakis_full` — full acyclic evaluation
  (full reducer + output-projected bottom-up joins) over survivor masks
  and gathered key arrays: the Boolean sweep, then its top-down mirror.
  Joins expand ``searchsorted`` match ranges with ``np.repeat`` index
  arithmetic, intermediate frames are deduplicated in packed-key space
  (set semantics), and rows are decoded through the codebook only for
  the final output.

Every kernel enters through :func:`_require_blocks`, which makes its
inputs comparable: atoms that are block-backed over one codebook with
one column kind per variable — every reduction artifact — are taken as
they are; anything else (row-backed relations handed to the public API,
blocks over different books, a variable that is a code column here and
a verbatim id there) is dictionary-encoded into one call-local book
first.  Rows wider than one machine word are handled where keys are
built (:func:`~repro.reduction.columnar.pack_keys` re-ranks, the sorted
trie levels are keyed by dense prefix ids), so there is no input the
kernels decline.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

import networkx as nx
import numpy as np

from ..reduction.columnar import (
    CODE_DTYPE,
    COL_CODE,
    COUNT_DTYPE,
    KEY_LIMIT,
    CodeBook,
    ColumnBlock,
    decode_cells,
    encode_rows,
    pack_keys,
)
from ..widths.tree_decomposition import TreeDecomposition
from .generic_join import JoinAtom, default_variable_order
from .relation import Relation

__all__ = [
    "columnar_materialise_bags",
    "columnar_yannakakis_boolean",
    "columnar_yannakakis_count",
    "columnar_yannakakis_full",
    "generic_batch_boolean",
    "generic_batch_count",
    "generic_join_boolean",
    "generic_join_count",
    "generic_join_relation",
]

#: Packed-key spaces at or below this are "small": membership tests use
#: ``np.isin(kind="table")`` and counting messages use a dense
#: ``np.bincount`` table (a few MB at most) instead of sort-based paths.
TABLE_RADIX_LIMIT = 1 << 22

#: ... and a counting table (``float64`` slots, filled and cast per
#: message) must also be *dense*: at most this many slots per row it
#: serves.  Node ids are sparse in their bound (``2 << height``, where a
#: dictionary code is below the number of distinct values), so two part
#: columns can span thousands of slots per row — sorting the rows is
#: cheaper than filling that.
TABLE_SLOTS_PER_ROW = 16

#: Conservative ceiling for exact ``int64`` count arithmetic: a count
#: array whose bound crosses it holds Python ints instead.
_INT64_SAFE = 1 << 62

#: ``np.bincount`` accumulates float64 weights; sums below this are
#: exactly representable, larger ones take the sort-based path.
_FLOAT_EXACT = 1 << 52


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------


def _require_blocks(
    atoms: Sequence[JoinAtom],
) -> tuple[list[ColumnBlock], dict[str, str], CodeBook | None]:
    """One column block per atom, each variable's column kind, and the
    one codebook all the blocks are over (``None`` without atoms) — the
    form every kernel computes in.

    Atoms that already are block-backed over one shared book with one
    kind per variable are returned untouched.  Otherwise codes are not
    comparable across the atoms as they stand, and every atom's rows are
    dictionary-encoded into a fresh book local to this call (one pass
    over the rows, all columns as code columns)."""
    blocks = [atom.relation.columnar for atom in atoms]
    kind_of: dict[str, str] = {}
    book = None
    comparable = True
    for atom, block in zip(atoms, blocks):
        if block is None or block.book is None:
            comparable = False
            break
        if book is None:
            book = block.book
        elif block.book is not book:
            comparable = False
            break
        for v, kind in zip(atom.variables, block.kinds):
            if kind_of.setdefault(v, kind) != kind:
                comparable = False
    if comparable:
        return blocks, kind_of, book
    book = CodeBook()
    blocks = [
        encode_rows(
            atom.relation.tuples, (COL_CODE,) * len(atom.variables), book
        )
        for atom in atoms
    ]
    kind_of = {v: COL_CODE for atom in atoms for v in atom.variables}
    return blocks, kind_of, book


def _rooted_orders(tree: nx.Graph, root) -> tuple[list, dict]:
    """BFS order from the root and the parent map."""
    order = [root]
    parent = {root: None}
    for u in order:
        for v in tree.neighbors(u):
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


def _expand_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row ranges ``[starts[i], starts[i] + counts[i])``:
    for every element of every range, its row ``i`` and its position
    (``np.repeat`` index arithmetic, no Python loop)."""
    row_idx = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    positions = np.repeat(starts - first, counts) + np.arange(row_idx.size)
    return row_idx, positions


def key_isin(
    haystack: np.ndarray, needles: np.ndarray, bound: int
) -> np.ndarray:
    """``np.isin`` over packed keys below ``bound``, using the dense
    table algorithm whenever the key space is small."""
    if bound <= TABLE_RADIX_LIMIT:
        return np.isin(haystack, needles, kind="table")
    return np.isin(haystack, needles)


def _shared_columns(
    blocks: Sequence[ColumnBlock],
    atoms: Sequence[JoinAtom],
    a: int,
    b: int,
) -> tuple[list[int], list[int], list[int]]:
    """Column indices of the variables atoms ``a``/``b`` share (in
    ``a``'s schema order) on either side, and per shared variable an
    exclusive bound on its cells — the codebook's domain size for code
    columns (O(1)), one max scan for verbatim ids.  A variable has one
    kind wherever it occurs (:func:`_require_blocks`), so the raw cells
    of both sides compare directly."""
    a_vars = atoms[a].variables
    b_vars = atoms[b].variables
    a_idx = [i for i, v in enumerate(a_vars) if v in b_vars]
    b_idx = [b_vars.index(a_vars[i]) for i in a_idx]
    radices = [
        max(blocks[a].column_radix(i), blocks[b].column_radix(j))
        for i, j in zip(a_idx, b_idx)
    ]
    return a_idx, b_idx, radices


def _group_sum(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-key sums of ``weights`` in their own dtype: sorted unique
    keys plus their exact sums (stable argsort + ``np.add.reduceat``)."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_weights = weights[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return sorted_keys[starts], np.add.reduceat(sorted_weights, starts)


def _lookup_sums(
    unique_keys: np.ndarray, sums: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """``sums`` gathered at each query key (0 where the key is absent)."""
    idx = np.searchsorted(unique_keys, queries)
    clipped = np.minimum(idx, unique_keys.size - 1)
    hit = (idx < unique_keys.size) & (unique_keys[clipped] == queries)
    gathered = sums[clipped]
    gathered[~hit] = 0
    return gathered


# ----------------------------------------------------------------------
# counting: the join-tree DP on count arrays
# ----------------------------------------------------------------------


def _fit(values: np.ndarray, bound: int) -> np.ndarray:
    """``values`` in a dtype that holds everything up to ``bound``
    exactly: ``int64`` while the bound is safe, Python ints beyond."""
    if bound > _INT64_SAFE and values.dtype != object:
        return values.astype(object)
    return values


def _exact_sum(values: np.ndarray, bound: int) -> int:
    """The exact sum of a count array whose entries ``bound`` bounds."""
    return int(_fit(values, bound * max(values.size, 1)).sum())


def columnar_yannakakis_count(
    atoms: Sequence[JoinAtom], tree: nx.Graph
) -> int:
    """Number of satisfying assignments over *all* variables via the
    classical join-tree counting DP, on code arrays (nodes of ``tree``
    are indices into ``atoms``).

    Per-row extension counts start at 1, each bottom-up edge aggregates
    child counts grouped by the shared columns and multiplies the
    aggregate onto the matching parent rows (absent keys multiply by 0 —
    the row has no extension), and the total is the product over
    components of the root's count sum.  Per node, a Python-int bound on
    any single count entry decides the arithmetic: ``int64`` arrays
    while it is safe, ``dtype=object`` arrays of Python ints (through
    the sort-based group-by, which is exact on them) once it is not.
    """
    blocks, *_ = _require_blocks(atoms)
    if any(block.row_count == 0 for block in blocks):
        return 0
    counts = [np.ones(block.row_count, dtype=COUNT_DTYPE) for block in blocks]
    bounds = [1] * len(blocks)
    total = 1
    for component in nx.connected_components(tree):
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            p_idx, c_idx, radices = _shared_columns(blocks, atoms, p, node)
            if not p_idx:
                # cartesian edge: every parent row extends by every
                # child assignment — multiply by the child's total
                child_total = _exact_sum(counts[node], bounds[node])
                if child_total == 0:
                    return 0
                bounds[p] *= child_total
                counts[p] = _fit(counts[p], bounds[p]) * child_total
                continue
            (parent_keys, child_keys), key_bound = pack_keys(
                [
                    [np.asarray(blocks[p].column(j)) for j in p_idx],
                    [np.asarray(blocks[node].column(j)) for j in c_idx],
                ],
                radices,
            )
            message_bound = bounds[node] * blocks[node].row_count
            bounds[p] *= message_bound
            rows = child_keys.size + parent_keys.size
            if (
                key_bound <= min(TABLE_RADIX_LIMIT, TABLE_SLOTS_PER_ROW * rows)
                and message_bound < _FLOAT_EXACT
            ):
                table = np.bincount(
                    child_keys, weights=counts[node], minlength=key_bound
                )
                message = table[parent_keys].astype(COUNT_DTYPE)
            else:
                unique_keys, sums = _group_sum(
                    child_keys, _fit(counts[node], message_bound)
                )
                message = _lookup_sums(unique_keys, sums, parent_keys)
            counts[p] = _fit(counts[p], bounds[p]) * _fit(message, bounds[p])
            if not counts[p].any():
                return 0
        component_total = _exact_sum(counts[root], bounds[root])
        if component_total == 0:
            return 0
        total *= component_total
    return total


# ----------------------------------------------------------------------
# generic join on sorted prefix arrays, and the bag kernel
# ----------------------------------------------------------------------


class _Part(NamedTuple):
    """One input of the array generic join: variable names and the
    block columns holding them (all of a relation's, or some — the sort
    below deduplicates, so a subset is a projection)."""

    variables: tuple[str, ...]
    block: ColumnBlock
    columns: tuple[int, ...]


class _Sorted(NamedTuple):
    """Sorted-prefix state of a batch of joins, shared by both
    traversals.

    Level 0 is the disjunct level, join ``δ`` of the batch under prefix
    ``δ`` (empty for a batch of one, bar atoms without columns); below
    it, atom ``a``'s columns are taken in the global variable order;
    ``prefixes[a][d]`` (a :class:`_Stack` for a batch) is level ``d``
    of its trie, flattened: one sorted
    ``int64`` key ``parent * r + value`` per *distinct* prefix of
    ``d + 1`` levels, with ``r = radices[a][d]``, so the children of
    one parent occupy the contiguous key range
    ``[parent * r, (parent + 1) * r)``.  What names the parent depends
    on the atom's width: while a whole row packs into 62 bits it is the
    parent's own key (the mixed-radix packed prefix); ``dense[a]``
    marks the atoms whose rows do not, and there it is the parent's
    *position* in level ``d - 1``, so a key needs
    ``log2(rows) + log2(r)`` bits whatever the arity.
    ``advancing[level]`` lists the ``(atom, depth)`` pairs that bind
    that level's variable.  A counting join also has ``runs``:
    ``runs[a][i]`` counts the atom's rows behind entry ``i`` of its
    deepest level — for a projected atom, how many of its rows share
    that projection; for an atom without columns, its join's rows.
    """

    radices: list[tuple[int, ...]]
    prefixes: list[Sequence[np.ndarray]]
    advancing: list[list[tuple[int, int]]]
    dense: list[bool]
    runs: list[np.ndarray | None] | None


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of an ascending array (run starts — much
    cheaper than ``np.unique`` on the short arrays a bag join sorts)."""
    if keys.size < 2:
        return keys
    return keys[_run_starts(keys)]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Marks the first entry of each run of equal entries of an
    ascending array."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _trie(codes: np.ndarray, positions, radices, counting: bool, dense: bool) -> tuple:
    """The trie levels of ``codes`` projected onto ``positions`` (in
    level order) under ``radices`` and, if ``counting``, the run length
    behind each entry of the deepest.  Packed rows are packed, sorted
    and deduplicated once, and the shorter prefixes peeled off by floor
    division; ``dense`` rows are ranked one column at a time (each
    level's ``np.unique`` hands the next its parents)."""
    columns = [codes[:, j] for j in positions]
    levels: list[np.ndarray] = []
    runs = None
    if dense:
        parent = np.zeros(codes.shape[0], dtype=np.int64)
        for column, radix in zip(columns, radices):
            level, parent, runs = np.unique(
                parent * radix + column, return_inverse=True, return_counts=True
            )
            levels.append(level)
    elif columns:
        (keys,), _ = pack_keys([columns], radices)
        keys.sort()
        first = _run_starts(keys)
        levels.append(keys[first])
        if counting:
            runs = np.diff(np.flatnonzero(first), append=keys.size)
        for radix in reversed(radices[1:]):
            levels.append(_distinct_sorted(levels[-1] // radix))
        levels.reverse()
    return tuple(levels), runs


class _Stack:
    """One atom's trie levels over a batch of two or more joins, each
    stacked when a traversal first reads it, so a join that empties
    early never copies the deeper ones.  Level 0 is the disjunct level;
    below it, join ``δ``'s entries of a level are its own shifted by
    what names its root one level up (δ below the disjunct level: its
    packed prefix, or for a dense atom its first position) times the
    level's radix."""

    def __init__(self, tries: list[tuple], radices: tuple[int, ...], dense: bool):
        self.tries, self.radices, self.dense = tries, radices, dense
        self.levels = [np.arange(len(tries), dtype=np.int64)]
        self.roots = self.levels[0]  # per join, what names it one level up

    def __len__(self) -> int:
        return len(self.radices) + 1

    def __getitem__(self, d: int) -> np.ndarray:
        while len(self.levels) <= d:
            k = len(self.levels) - 1  # the joins' own depth of the next level
            radix = self.radices[k]
            ends = np.cumsum([trie[k].size for trie, _ in self.tries])
            level = np.empty(int(ends[-1]), dtype=np.int64)
            for (trie, _), shift, end in zip(self.tries, (self.roots * radix).tolist(), ends):
                np.add(trie[k], shift, out=level[end - trie[k].size : end])
            self.levels.append(level)
            self.roots = np.concatenate(([0], ends[:-1])) if self.dense else self.roots * radix
        return self.levels[d]


def _sort_parts(
    batch: Sequence[Sequence[_Part]],
    order: Sequence[str],
    radix_of: dict[str, int],
    counting: bool = False,
) -> _Sorted:
    """The stacked state of a batch of joins, the ``a``-th parts of all
    joins as atom ``a``.  Every part's :func:`_trie` is memoized on its
    block per (projection, ``counting``) under the radices and width,
    so joins sharing a variant sort each projection once.  A batch of
    one takes its tries as they are, a larger one stacks them
    (:class:`_Stack`)."""
    level_of = {v: i for i, v in enumerate(order, 1)}
    state = _Sorted([], [], [[] for _ in range(len(order) + 1)], [], [] if counting else None)
    for a, column in enumerate(zip(*batch)):
        variables = column[0].variables
        depths = sorted(range(len(variables)), key=lambda j: level_of[variables[j]])
        radices = tuple(radix_of[variables[j]] for j in depths)
        dense = len(column) * math.prod(radices) > KEY_LIMIT
        stacked = len(column) > 1 or not depths
        if not depths:
            # no columns: each join weighted by its rows, the empty dropped
            rows = np.array([part.block.row_count for part in column])
            levels, runs = [np.flatnonzero(rows)], rows[rows > 0]
        else:
            tries = []
            for part in column:
                positions = tuple(part.columns[j] for j in depths)
                tries.append(part.block.derived(
                    ("trie", positions, counting),
                    lambda: _trie(part.block.codes, positions, radices, counting, dense),
                    (radices, dense),
                ))
            levels, runs = tries[0]
        if stacked and depths:
            levels = _Stack(tries, radices, dense)
            runs = np.concatenate([runs for _, runs in tries]) if counting else None
        state.radices.append(((len(column),) if stacked else ()) + radices)
        state.prefixes.append(levels)
        state.dense.append(dense)
        if counting:
            state.runs.append(runs)
        if stacked:
            state.advancing[0].append((a, 0))
        for depth, j in enumerate(depths, stacked):
            state.advancing[level_of[variables[j]]].append((a, depth))
    return state


def _sorted_positions(
    segment: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership of ``values`` in a sorted ``segment`` via
    ``searchsorted`` (no hashing, no table), and where each member
    sits."""
    if segment.size == 0:
        return np.zeros(values.shape, dtype=bool), np.zeros(
            values.shape, dtype=np.int64
        )
    idx = np.searchsorted(segment, values)
    at = np.minimum(idx, segment.size - 1)
    return (idx < segment.size) & (segment[at] == values), at


def _levelwise_join(state: _Sorted) -> tuple[np.ndarray, np.ndarray | None]:
    """Every satisfying assignment, as an ``int64`` matrix with one
    column per level — generic join run one level at a time over the
    whole frontier of partial assignments instead of one value at a
    time — and, for a counting state, each one's weight (else
    ``None``): the product of the run lengths (:attr:`_Sorted.runs`) of
    its atoms' deepest prefixes, read at the position the membership
    search found them, exact at any magnitude (:func:`_fit`).

    Per level, each active atom's candidate range is found for every
    frontier row at once (``searchsorted`` on the level's prefix keys);
    each row is expanded from its own **narrowest** range and the
    candidates are kept only where every other active atom has the
    extended prefix — a membership search whose hit position names the
    extended prefix for the next level of a dense atom.  The per-row
    pivot is what
    keeps the worst-case-optimal bound: a row costs the size of its
    smallest candidate set, as in the trie join, so the frontier never
    exceeds the AGM bound of the atoms seen so far — a fixed pivot atom
    (a pairwise join) can be quadratically larger on skew.
    """
    radices, prefixes, advancing, dense, runs = state
    rows = 1
    bound: list[np.ndarray] = []
    weights = None if runs is None else np.ones(1, dtype=COUNT_DTYPE)
    weight_bound = 1
    #: per atom, what names the prefix each frontier row has bound so
    #: far — its key, or for a dense atom its position, in the atom's
    #: previous trie level (``None`` before the atom's first level and
    #: after its last)
    prefix: list[np.ndarray | None] = [None] * len(prefixes)
    for active in advancing:
        if not active:  # the disjunct level of a batch of one
            bound.append(np.zeros(rows, dtype=np.int64))
            continue
        tries = [prefixes[a][d] for a, d in active]
        steps = [radices[a][d] for a, d in active]
        deepest = [d + 1 == len(prefixes[a]) for a, d in active]
        bases = [
            np.zeros(rows, dtype=np.int64)
            if prefix[a] is None
            else prefix[a] * step
            for (a, _), step in zip(active, steps)
        ]
        los = [np.searchsorted(t, base) for t, base in zip(tries, bases)]
        widths = [
            np.searchsorted(t, base + step) - lo
            for t, base, step, lo in zip(tries, bases, steps, los)
        ]
        if len(active) == 1:
            # a variable private to one atom (every provenance id): no
            # pivot to choose and nothing to filter against
            row_idx, positions = _expand_ranges(los[0], widths[0])
            keys = tries[0][positions]
            values = keys % steps[0]
            carried = [positions if dense[active[0][0]] or deepest[0] else keys]
        else:
            stacked = np.stack(widths)
            pivot = stacked.argmin(axis=0)
            at = np.arange(rows)
            # one pool of candidate values, each atom's at its offset
            offsets = np.cumsum([0] + [t.size for t in tries[:-1]])
            row_idx, positions = _expand_ranges(
                np.stack(los)[pivot, at] + offsets[pivot], stacked[pivot, at]
            )
            pool = np.concatenate([t % step for t, step in zip(tries, steps)])
            values = pool[positions]
            keep = np.ones(values.size, dtype=bool)
            carried = []
            for (a, _), t, base, last in zip(active, tries, bases, deepest):
                keys = base[row_idx] + values
                hit, where = _sorted_positions(t, keys)
                keep &= hit
                carried.append(where if dense[a] or last else keys)
            if not keep.all():
                row_idx = row_idx[keep]
                values = values[keep]
                carried = [names[keep] for names in carried]
        rows = int(values.size)
        if rows == 0:
            empty = np.empty((0, len(advancing)), dtype=np.int64)
            return empty, None if weights is None else weights[:0]
        prefix = [p if p is None else p[row_idx] for p in prefix]
        if weights is not None:
            weights = weights[row_idx]
        for (a, _), names, last in zip(active, carried, deepest):
            prefix[a] = None if last else names
            if last and weights is not None:
                weight_bound *= int(runs[a].max())
                weights = _fit(weights, weight_bound) * _fit(
                    runs[a][names], weight_bound
                )
        bound = [column[row_idx] for column in bound]
        bound.append(values)
    if weights is not None:
        weights = _fit(weights, weight_bound * rows)
    if not bound:
        return np.empty((1, 0), dtype=np.int64), weights
    return np.stack(bound, axis=1), weights


def _has_witness(state: _Sorted) -> bool:
    """Non-emptiness by depth-first generic join over the same state:
    at each level the narrowest active range proposes the values, the
    other active atoms filter them in one vectorized membership test
    each, and the search descends into the survivors one at a time —
    stopping at the first full assignment."""
    radices, prefixes, advancing, dense, _ = state
    last = len(advancing) - 1

    def recurse(level: int, prefix: list[int]) -> bool:
        active = advancing[level]
        if not active:  # the disjunct level of a batch of one
            return level == last or recurse(level + 1, prefix)
        spans = []
        for a, d in active:
            base = prefix[a] * radices[a][d]
            lo, hi = np.searchsorted(
                prefixes[a][d], (base, base + radices[a][d])
            ).tolist()
            if lo == hi:
                return False
            spans.append((lo, hi, base))
        pivot = min(range(len(active)), key=lambda i: spans[i][1] - spans[i][0])
        a, d = active[pivot]
        lo, hi, base = spans[pivot]
        values = prefixes[a][d][lo:hi] - base
        for i, (a, d) in enumerate(active):
            if i == pivot:
                continue
            lo, hi, base = spans[i]
            hit, _ = _sorted_positions(prefixes[a][d][lo:hi], base + values)
            values = values[hit]
            if values.size == 0:
                return False
        if level == last:
            return True
        # every survivor is present in every active range: its key — for
        # a dense atom its position — there names it at the next level
        carried = [
            (
                lo + np.searchsorted(prefixes[a][d][lo:hi], base + values)
                if dense[a]
                else base + values
            ).tolist()
            for (a, d), (lo, hi, base) in zip(active, spans)
        ]
        for names in zip(*carried):
            extended = list(prefix)
            for (a, _), name in zip(active, names):
                extended[a] = name
            if recurse(level + 1, extended):
                return True
        return False

    return recurse(0, [0] * len(prefixes))


def _generic_setup(
    batch: Sequence[Sequence[JoinAtom]],
    variable_order: Sequence[str] | None,
    core: bool = False,
) -> tuple[list[list[_Part]], list[str], dict[str, int], dict[str, str], CodeBook | None]:
    """The parts of a batch of joins — each atom on all its columns or,
    for the ``core``, on its shared variables, the same atom by atom in
    every join —, the first join's variable order, per variable a bound
    on its cells in every join (a key is extended with values another
    atom proposed), and the last join's column kinds and codebook."""
    degree = Counter(v for atom in batch[0] for v in atom.variables)
    order = list(variable_order) if variable_order else default_variable_order(batch[0])
    if set(order) != set(degree):
        raise ValueError("variable order must cover exactly the join variables")
    radix_of = {v: 1 for v in order if degree[v] > 1 or not core}
    parts = []
    for atoms in batch:
        blocks, kind_of, book = _require_blocks(atoms)
        join = []
        for atom, block in zip(atoms, blocks):
            kept = tuple(j for j, v in enumerate(atom.variables) if v in radix_of)
            for j in kept:
                v = atom.variables[j]
                radix_of[v] = max(radix_of[v], block.column_radix(j))
            join.append(_Part(tuple(atom.variables[j] for j in kept), block, kept))
        parts.append(join)
    return parts, list(radix_of), radix_of, kind_of, book


def generic_batch_count(
    batch: Sequence[Sequence[JoinAtom]],
    variable_order: Sequence[str] | None = None,
) -> int:
    """The summed counts of a batch of joins over one core: one
    level-wise join of their stacked cores, each core assignment
    weighted by how many rows of each atom extend it."""
    parts, order, radix_of, _, _ = _generic_setup(batch, variable_order, core=True)
    _, weights = _levelwise_join(_sort_parts(parts, order, radix_of, counting=True))
    return int(weights.sum())


def generic_batch_boolean(
    batch: Sequence[Sequence[JoinAtom]],
    variable_order: Sequence[str] | None = None,
) -> bool:
    """True iff some join of a batch over one core is non-empty: the
    depth-first join of their stacked cores, in batch order, stopping at
    the first witness."""
    parts, order, radix_of, _, _ = _generic_setup(batch, variable_order, core=True)
    return _has_witness(_sort_parts(parts, order, radix_of))


def generic_join_count(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> int:
    """Number of satisfying assignments of the natural join: the batch
    of one of :func:`generic_batch_count`."""
    return generic_batch_count([atoms], variable_order)


def generic_join_boolean(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> bool:
    """True iff the join is non-empty: the batch of one of
    :func:`generic_batch_boolean`."""
    return generic_batch_boolean([atoms], variable_order)


def generic_join_relation(
    atoms: Sequence[JoinAtom],
    output: Sequence[str] | None = None,
    name: str = "join",
    variable_order: Sequence[str] | None = None,
) -> Relation:
    """Materialise the join projected onto ``output`` (every variable,
    in first-occurrence order, when ``None``): the level-wise join's
    assignment matrix, projected and deduplicated in key space and
    decoded once."""
    parts, order, radix_of, kind_of, book = _generic_setup([atoms], variable_order)
    if output is None:
        output = list(dict.fromkeys(v for atom in atoms for v in atom.variables))
    joined, _ = _levelwise_join(_sort_parts(parts, order, radix_of))
    frame = _project_frame(
        _Frame(order, list(joined[:, 1:].T), int(joined.shape[0])),
        list(output),
        radix_of,
    )
    return Relation(name, output, _decode_frame(frame, kind_of, book))


def columnar_materialise_bags(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> list[Relation]:
    """One block-backed relation per bag of ``td``: the worst-case
    optimal join of the projections ``π_{bag ∩ vars(e)} R_e`` over every
    overlapping atom.

    A projection is a column slice of the atom's code matrix (the sort
    of :func:`_sort_parts` deduplicates it); the join is
    :func:`_levelwise_join`; the result is wrapped over the atoms' own
    codebook with per-variable column kinds, so the bag relations feed
    the Yannakakis kernels and no row is ever decoded.  Input matrices
    (possibly read-only maps of a cache entry) are only read.
    """
    (atom_parts,), _, radix_of, kind_of, book = _generic_setup([atoms], None)
    bags: list[Relation] = []
    for i, bag in enumerate(td.bags):
        bag_vars = sorted(bag, key=str)
        parts: list[_Part] = []
        for part in atom_parts:
            shared = [j for j, v in enumerate(part.variables) if v in bag]
            if shared:
                parts.append(
                    _Part(
                        tuple(part.variables[j] for j in shared),
                        part.block,
                        tuple(part.columns[j] for j in shared),
                    )
                )
        covered = {v for part in parts for v in part.variables}
        if set(bag_vars) - covered:
            raise ValueError(
                f"bag {bag_vars} contains vertices covered by no atom"
            )
        order = default_variable_order(parts)
        joined, _ = _levelwise_join(_sort_parts([parts], order, radix_of))
        codes = joined[:, [order.index(v) + 1 for v in bag_vars]]
        block = ColumnBlock(
            codes.astype(CODE_DTYPE),
            [kind_of[v] for v in bag_vars],
            book,
            [radix_of[v] for v in bag_vars],
        )
        bags.append(Relation.from_columns(f"bag{i}", bag_vars, block))
    return bags


# ----------------------------------------------------------------------
# full evaluation: full reducer + output-projected joins on frames
# ----------------------------------------------------------------------


class _Frame:
    """An intermediate join result as parallel code columns.  ``rows``
    is kept explicitly so zero-width frames (everything projected away)
    still know whether they hold the empty tuple."""

    __slots__ = ("vars", "cols", "rows")

    def __init__(
        self, vars: Sequence[str], cols: list[np.ndarray], rows: int
    ):
        self.vars = tuple(vars)
        self.cols = cols
        self.rows = rows


def _semijoin_mask(
    blocks: Sequence[ColumnBlock],
    atoms: Sequence[JoinAtom],
    alive: list[np.ndarray],
    target: int,
    source: int,
) -> None:
    """Intersect ``target``'s survivor mask with membership of its
    shared-column keys among ``source``'s surviving keys (one direction
    of the full reducer's semijoin sweeps)."""
    t_idx, s_idx, radices = _shared_columns(blocks, atoms, target, source)
    if not t_idx:
        if not alive[source].any():
            alive[target][:] = False
        return
    (target_keys, source_keys), bound = pack_keys(
        [
            [np.asarray(blocks[target].column(j)) for j in t_idx],
            [
                np.asarray(blocks[source].column(j))[alive[source]]
                for j in s_idx
            ],
        ],
        radices,
    )
    alive[target] &= key_isin(target_keys, source_keys, bound)


def columnar_yannakakis_boolean(
    atoms: Sequence[JoinAtom], tree: nx.Graph
) -> bool:
    """Boolean acyclic evaluation over code arrays: nodes of ``tree``
    index into ``atoms``; per component, a bottom-up sweep semijoins
    each parent with its children and the query is true iff every root
    keeps a surviving row."""
    blocks, *_ = _require_blocks(atoms)
    if any(block.row_count == 0 for block in blocks):
        return False
    if tree.number_of_nodes() == 0:
        return True
    alive = [np.ones(block.row_count, dtype=bool) for block in blocks]
    for component in nx.connected_components(tree):
        order, parent = _rooted_orders(tree, min(component))
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            _semijoin_mask(blocks, atoms, alive, p, node)
            if not alive[p].any():
                return False
    return True


def _join_frames(
    left: _Frame, right: _Frame, radix_of: dict[str, int]
) -> _Frame:
    """Natural join of two frames on their shared variables: sort the
    right side's packed keys once, locate each left row's match range
    with ``searchsorted``, and expand the ranges with ``np.repeat``
    index arithmetic."""
    shared = [v for v in left.vars if v in right.vars]
    right_only = [j for j, v in enumerate(right.vars) if v not in left.vars]
    if shared:
        (left_keys, right_keys), _ = pack_keys(
            [
                [left.cols[left.vars.index(v)] for v in shared],
                [right.cols[right.vars.index(v)] for v in shared],
            ],
            [radix_of[v] for v in shared],
        )
        right_order = np.argsort(right_keys, kind="stable")
        right_sorted = right_keys[right_order]
        lo = np.searchsorted(right_sorted, left_keys, side="left")
        hi = np.searchsorted(right_sorted, left_keys, side="right")
        left_idx, positions = _expand_ranges(lo, hi - lo)
        right_idx = right_order[positions]
    else:
        left_idx = np.repeat(np.arange(left.rows), right.rows)
        right_idx = np.tile(np.arange(right.rows), left.rows)
    cols = [c[left_idx] for c in left.cols] + [
        right.cols[j][right_idx] for j in right_only
    ]
    vars_ = left.vars + tuple(right.vars[j] for j in right_only)
    return _Frame(vars_, cols, int(left_idx.size))


def _project_frame(
    frame: _Frame, keep: Sequence[str], radix_of: dict[str, int]
) -> _Frame:
    """Project onto ``keep`` and deduplicate rows (set semantics) by
    their packed keys.  ``radix_of`` carries the per-variable value
    bounds (codebook domain size for code columns)."""
    cols = [frame.cols[frame.vars.index(v)] for v in keep]
    if not cols:
        return _Frame((), [], 1 if frame.rows else 0)
    (keys,), _ = pack_keys([cols], [radix_of[v] for v in keep])
    _, unique = np.unique(keys, return_index=True)
    return _Frame(keep, [c[unique] for c in cols], int(unique.size))


def _decode_frame(frame: _Frame, kind_of, book) -> list[tuple]:
    """Decode a frame's rows into Python tuples — the only place full
    evaluation touches decoded values, and it runs on the final
    (projected, deduplicated) output rows alone."""
    if not frame.vars:
        return [()] * frame.rows
    columns = [
        decode_cells(kind_of[v], col.tolist(), book)
        for v, col in zip(frame.vars, frame.cols)
    ]
    return list(zip(*columns))


def columnar_yannakakis_full(
    atoms: Sequence[JoinAtom],
    tree: nx.Graph,
    output: Sequence[str] | None = None,
) -> Relation:
    """Full acyclic evaluation over code arrays.

    The full reducer (bottom-up then top-down semijoin sweeps) runs on
    survivor masks, giving output-sensitive ``O(input + output)``
    behaviour; the bottom-up joins keep only output variables plus each
    node's own bag schema (its own schema carries every link to the
    parent and to children not yet absorbed — running intersection),
    and components are joined at the end.  Output rows are decoded
    through the codebook only once, at the very end.
    """
    blocks, kind_of, book = _require_blocks(atoms)
    radix_of: dict[str, int] = {}
    for atom, block in zip(atoms, blocks):
        for j, v in enumerate(atom.variables):
            radix_of[v] = max(radix_of.get(v, 1), block.column_radix(j))
    all_vars: list[str] = []
    for atom in atoms:
        for v in atom.variables:
            if v not in all_vars:
                all_vars.append(v)
    out_vars = list(output) if output is not None else all_vars
    if tree.number_of_nodes() == 0:
        return Relation("result", [], [()])  # no atoms: one empty assignment
    out_set = set(out_vars)
    alive = [np.ones(block.row_count, dtype=bool) for block in blocks]
    results: list[_Frame] = []
    for component in nx.connected_components(tree):
        root = min(component)
        order, parent = _rooted_orders(tree, root)
        for node in reversed(order):
            p = parent[node]
            if p is not None:
                _semijoin_mask(blocks, atoms, alive, p, node)
        for node in order:
            p = parent[node]
            if p is not None:
                _semijoin_mask(blocks, atoms, alive, node, p)
        acc = {
            node: _Frame(
                atoms[node].variables,
                [
                    np.asarray(blocks[node].column(j))[alive[node]]
                    for j in range(blocks[node].width)
                ],
                int(alive[node].sum()),
            )
            for node in order
        }
        for node in reversed(order):
            p = parent[node]
            if p is None:
                continue
            joined = _join_frames(acc[p], acc[node], radix_of)
            keep = [
                v
                for v in joined.vars
                if v in out_set or v in atoms[p].variables
            ]
            acc[p] = _project_frame(joined, keep, radix_of)
        results.append(acc[root])
    final = results[0]
    for frame in results[1:]:
        final = _join_frames(final, frame, radix_of)
    present = [v for v in out_vars if v in final.vars]
    final = _project_frame(final, present, radix_of)
    return Relation("result", present, _decode_frame(final, kind_of, book))
