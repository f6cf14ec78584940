"""The columnar evaluation tier: semijoin sweeps, counting DP, generic
join, bag materialisation and the full reducer on code arrays.

Transformed relations are ``uint32`` code matrices over one shared
:class:`~repro.reduction.columnar.CodeBook`; code equality is value
equality, so everything the evaluation tier does runs on the codes and
evaluates warm, memmap-loaded reductions without materializing a Python
tuple:

* :func:`columnar_yannakakis_boolean` — the bottom-up semijoin sweep of
  Yannakakis' algorithm on survivor masks.  Per join-tree edge the
  shared columns are folded into one comparable ``int64`` key per row
  and the parent's mask is intersected with an ``np.isin`` membership
  test against the child's surviving keys (:func:`_semijoin_mask` — the
  bottom-up half of the full reducer below); the query is true iff every
  root keeps a surviving row, and the sweep stops at the first emptied
  mask.

* :func:`columnar_yannakakis_count` — the join-tree counting DP with
  per-node extension counts held as ``int64`` arrays.  Each bottom-up
  message is one vectorized group-by: the edge's shared code columns are
  folded into mixed-radix ``int64`` keys (radices straight from the
  shared codebook's domain size — no column rescans), child counts are
  aggregated per key with ``np.bincount`` (small radices) or a stable
  ``argsort`` + ``np.add.reduceat`` (large), and the aggregate is
  broadcast-multiplied onto the parent rows through ``searchsorted``
  lookups.  Exactness is guarded: any intermediate that could leave the
  ``int64``-safe range falls back to the retained dict DP (which counts
  in unbounded Python ints).

* :func:`columnar_generic_join_count` / ``_boolean`` — the worst-case
  optimal join on sorted arrays instead of nested dict tries.  Each
  atom's columns are packed, in the global variable order, into one
  mixed-radix ``int64`` key per row and sorted **once** per call; the
  distinct keys of every prefix length are the levels of a flattened
  trie in which the children of a prefix are one contiguous key range,
  found by ``searchsorted``.  Counting runs the join one level at a
  time over the whole frontier of partial assignments
  (:func:`_levelwise_join`); the Boolean form walks the same state
  depth-first and stops at the first witness.

* :func:`columnar_materialise_bags` — phase 1 of the ``decomposition``
  strategy (Appendix A.2.1): every bag of a tree decomposition as the
  level-wise join of the projections ``π_{bag ∩ vars(e)} R_e``, a
  projection being a column slice that the packed-key sort
  deduplicates.  The bags come back as columnar relations over the
  atoms' own codebook, so phase 2 takes the Yannakakis kernels above
  and a cyclic disjunct is answered without decoding a row.  At each
  level every frontier row is expanded from its own narrowest candidate
  range and filtered by membership in the other atoms, so a row costs
  its smallest candidate set, exactly as in the trie join; the frontier
  is the join of the atoms' projections onto the variables bound so far
  and stays within their AGM bound, where a fixed pivot atom — a
  pairwise join — is quadratically larger on skewed inputs.

* :func:`columnar_yannakakis_full` — full acyclic evaluation
  (full reducer + output-projected bottom-up joins) over survivor masks
  and gathered key arrays: the Boolean sweep, then its top-down mirror.
  Joins expand ``searchsorted`` match ranges with ``np.repeat`` index
  arithmetic, intermediate frames are deduplicated in packed-key space
  (set semantics, exactly like the tuple path's projections), and rows
  are decoded through the codebook only for the final output.

Every kernel returns ``None`` whenever the atoms are not all columnar
over one shared codebook (or a join column is not dictionary-encoded on
both sides, or packed keys would overflow) — the caller then falls back
to the retained tuple implementations, which stay in the tree as the
differential oracles (:func:`or_tuple_tier` is that hand-off for the
acyclic phase).  The bag kernel says why: each of its ``None``
exits names one of :data:`BAG_FALLBACK_REASONS` — ``kernels_off``,
``not_columnar`` (an atom has materialized its tuples), ``mixed_codebooks``,
``mixed_kinds`` (a variable is a code column in one atom and a verbatim
id column in another) or ``key_overflow`` (a part's packed rows exceed
62 bits) — and :func:`record_bag_fallbacks` collects the counts, which
:class:`~repro.core.session.QuerySession` surfaces as
``stats.bag_fallbacks``.  :func:`use_columnar_kernels` turns the tier
off wholesale — every kernel checks it first — so tests and benchmarks
can force the tuple tier on demand.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple, Sequence

import networkx as nx
import numpy as np

from ..reduction.columnar import (
    CODE_DTYPE,
    COL_CODE,
    COUNT_DTYPE,
    ColumnBlock,
    pack_key_columns,
)
from ..widths.tree_decomposition import TreeDecomposition
from .generic_join import JoinAtom, default_variable_order
from .relation import Relation
from .yannakakis import _rooted_orders

__all__ = [
    "BAG_FALLBACK_REASONS",
    "atom_blocks",
    "columnar_generic_join_boolean",
    "columnar_generic_join_count",
    "columnar_materialise_bags",
    "columnar_yannakakis_boolean",
    "columnar_yannakakis_count",
    "columnar_yannakakis_full",
    "kernels_enabled",
    "or_tuple_tier",
    "record_bag_fallbacks",
    "use_columnar_kernels",
]

#: Packed-key radix products at or below this are "small": membership
#: tests use ``np.isin(kind="table")`` and counting messages use a dense
#: ``np.bincount`` table (a few MB at most) instead of sort-based paths.
TABLE_RADIX_LIMIT = 1 << 22

#: Conservative ceiling for exact ``int64`` count arithmetic: any
#: intermediate bound crossing it falls back to the dict DP, which
#: counts in unbounded Python ints.
_INT64_SAFE = 1 << 62

#: ``np.bincount`` accumulates float64 weights; sums below this are
#: exactly representable, larger ones take the sort-based path.
_FLOAT_EXACT = 1 << 52


#: Why :func:`columnar_materialise_bags` handed a disjunct to the tuple
#: tier — every ``None`` exit of that kernel names exactly one of these
#: (counted per session as ``stats.bag_fallbacks``).
BAG_FALLBACK_REASONS = (
    "kernels_off",
    "not_columnar",
    "mixed_codebooks",
    "mixed_kinds",
    "key_overflow",
)


class _Fallback(Exception):
    """Internal unwind signal: this query needs the tuple tier.
    ``reason`` is one of :data:`BAG_FALLBACK_REASONS` where the kernel
    that catches it reports why."""

    def __init__(self, reason: str | None = None):
        super().__init__(reason)
        self.reason = reason


# ----------------------------------------------------------------------
# the kill switch (benchmarks/tests force the tuple tier through this)
# ----------------------------------------------------------------------

_ENABLED = True


def kernels_enabled() -> bool:
    """Whether the columnar evaluation kernels are active (default on)."""
    return _ENABLED


@contextmanager
def use_columnar_kernels(enabled: bool) -> Iterator[None]:
    """Temporarily force the columnar evaluation tier on or off — the
    knob benchmarks and differential tests use to measure/pin the
    retained tuple implementations through the very same call paths."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


def or_tuple_tier(kernel, tuple_tier, atoms, tree, **options):
    """Run one acyclic pass over ``(atoms, tree)``: the columnar
    ``kernel``, or — when it answers ``None`` (kernels off, row-backed
    inputs, incomparable columns, counts beyond ``int64``) — the tuple
    implementation of the same pass, which is also its oracle."""
    answer = kernel(atoms, tree, **options)
    return tuple_tier(atoms, tree, **options) if answer is None else answer


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------


def _require_blocks(atoms: Sequence[JoinAtom]) -> list[ColumnBlock]:
    """Every atom's live column block; raises :class:`_Fallback` when
    any atom has materialized (``not_columnar``) or the blocks do not
    share one codebook (``mixed_codebooks`` — cross-relation code
    comparison would be meaningless)."""
    blocks: list[ColumnBlock] = []
    book = None
    for atom in atoms:
        block = getattr(atom.relation, "columnar", None)
        if (
            block is None
            or block.book is None
            or block.width != len(atom.variables)
        ):
            raise _Fallback("not_columnar")
        if book is None:
            book = block.book
        elif block.book is not book:
            raise _Fallback("mixed_codebooks")
        blocks.append(block)
    return blocks


def atom_blocks(atoms: Sequence[JoinAtom]) -> list[ColumnBlock] | None:
    """:func:`_require_blocks`, with ``None`` for "fall back"."""
    try:
        return _require_blocks(atoms)
    except _Fallback:
        return None


def _variable_kinds(
    atoms: Sequence[JoinAtom], blocks: Sequence[ColumnBlock]
) -> dict[str, str]:
    """Each variable's column kind.  Codes and verbatim ids are
    incomparable as raw ints, so a variable's kind must agree everywhere
    it occurs — :class:`_Fallback` (``mixed_kinds``) otherwise."""
    kind_of: dict[str, str] = {}
    for atom, block in zip(atoms, blocks):
        for v, kind in zip(atom.variables, block.kinds):
            if kind_of.setdefault(v, kind) != kind:
                raise _Fallback("mixed_kinds")
    return kind_of


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


def edge_keys(
    book, left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Packed join keys for the two sides of one edge over *code*
    columns.  Radices come from the shared codebook's domain size (every
    code is ``< len(book)``) — an O(1) derivation instead of a full
    ``.max()`` rescan per edge.  When the book is large enough that the
    O(1) radices overflow the packable range, the per-column maxima are
    scanned once as a second chance; only then does the edge fall back
    to the tuple tier."""
    radices: list[int] = [len(book)] * len(left_cols)
    left = pack_key_columns(left_cols, radices)
    right = pack_key_columns(right_cols, radices) if left is not None else None
    if left is None or right is None:
        radices = [
            max(
                int(lc.max()) if lc.size else 0,
                int(rc.max()) if rc.size else 0,
            )
            + 1
            for lc, rc in zip(left_cols, right_cols)
        ]
        left = pack_key_columns(left_cols, radices)
        right = pack_key_columns(right_cols, radices)
        if left is None or right is None:
            raise _Fallback
    return left, right, radices


def key_isin(
    haystack: np.ndarray, needles: np.ndarray, radices: Sequence[int]
) -> np.ndarray:
    """``np.isin`` over packed keys, using the dense table algorithm
    whenever the radix product says the key space is small."""
    total = 1
    for radix in radices:
        total *= max(int(radix), 1)
    if total <= TABLE_RADIX_LIMIT:
        return np.isin(haystack, needles, kind="table")
    return np.isin(haystack, needles)


def _shared_code_columns(
    blocks: Sequence[ColumnBlock],
    atoms: Sequence[JoinAtom],
    a: int,
    b: int,
) -> tuple[list[str], list[int], list[int]]:
    """Shared variables of atoms ``a``/``b`` (in ``a``'s schema order)
    with their column indices; raises :class:`_Fallback` when a shared
    column is not dictionary-encoded on both sides (verbatim ids joined
    against codes are incomparable as raw ints)."""
    a_vars = atoms[a].variables
    b_vars = atoms[b].variables
    shared = [v for v in a_vars if v in b_vars]
    a_idx: list[int] = []
    b_idx: list[int] = []
    for v in shared:
        ai = a_vars.index(v)
        bi = b_vars.index(v)
        if blocks[a].kinds[ai] != COL_CODE or blocks[b].kinds[bi] != COL_CODE:
            raise _Fallback
        a_idx.append(ai)
        b_idx.append(bi)
    return shared, a_idx, b_idx


def _group_sum(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-key ``int64`` sums of ``weights``: sorted unique keys plus
    their exact sums (stable argsort + ``np.add.reduceat``)."""
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
    return np.where(hit, sums[clipped], np.int64(0))


# ----------------------------------------------------------------------
# counting: the join-tree DP on int64 arrays
# ----------------------------------------------------------------------


def columnar_yannakakis_count(
    atoms: Sequence[JoinAtom], tree: nx.Graph
) -> int | None:
    """Number of satisfying assignments via the join-tree counting DP on
    code arrays, or ``None`` when the caller must fall back.

    Mirrors :func:`repro.engine.yannakakis.yannakakis_count` exactly:
    per-row extension counts start at 1, each bottom-up edge aggregates
    child counts grouped by the shared columns and multiplies the
    aggregate onto the matching parent rows (absent keys multiply by 0,
    which is the array form of the dict DP dropping the tuple), and the
    total is the product over components of the root's count sum.  All
    arithmetic is overflow-guarded; a count that could leave the safe
    ``int64`` range returns ``None`` so the dict DP's unbounded Python
    ints take over.
    """
    if not _ENABLED:
        return None
    blocks = atom_blocks(atoms)
    if blocks is None:
        return None
    if tree.number_of_nodes() == 0:
        return 0
    if any(block.row_count == 0 for block in blocks):
        return 0
    book = blocks[0].book
    counts = [np.ones(block.row_count, dtype=COUNT_DTYPE) for block in blocks]
    #: per node, an upper bound on any single count entry (Python int —
    #: the overflow guard for the int64 arrays)
    bounds = [1] * len(blocks)
    total = 1
    try:
        for component in nx.connected_components(tree):
            root = min(component)
            order, parent = _rooted_orders(tree, root)
            for node in reversed(order):
                p = parent[node]
                if p is None:
                    continue
                shared, p_idx, c_idx = _shared_code_columns(
                    blocks, atoms, p, node
                )
                if not shared:
                    # cartesian edge: every parent row extends by every
                    # child assignment — multiply by the child's total
                    child_total = _exact_sum(counts[node], bounds[node])
                    if child_total == 0:
                        return 0
                    bounds[p] *= child_total
                    if bounds[p] > _INT64_SAFE:
                        raise _Fallback
                    counts[p] = counts[p] * np.int64(child_total)
                    continue
                parent_cols = [np.asarray(blocks[p].column(j)) for j in p_idx]
                child_cols = [
                    np.asarray(blocks[node].column(j)) for j in c_idx
                ]
                parent_keys, child_keys, radices = edge_keys(
                    book, parent_cols, child_cols
                )
                message_bound = bounds[node] * blocks[node].row_count
                new_bound = bounds[p] * message_bound
                if new_bound > _INT64_SAFE:
                    raise _Fallback
                radix_total = 1
                for radix in radices:
                    radix_total *= max(int(radix), 1)
                if radix_total <= TABLE_RADIX_LIMIT and (
                    message_bound < _FLOAT_EXACT
                ):
                    table = np.bincount(
                        child_keys,
                        weights=counts[node],
                        minlength=radix_total,
                    )
                    message = table[parent_keys].astype(COUNT_DTYPE)
                else:
                    unique_keys, sums = _group_sum(child_keys, counts[node])
                    message = _lookup_sums(unique_keys, sums, parent_keys)
                counts[p] = counts[p] * message
                bounds[p] = new_bound
                if not counts[p].any():
                    return 0
            component_total = _exact_sum(counts[root], bounds[root])
            if component_total == 0:
                return 0
            total *= component_total
    except _Fallback:
        return None
    return int(total)


def _exact_sum(values: np.ndarray, bound: int) -> int:
    """``int(values.sum())``, guarded so the int64 accumulation cannot
    have overflowed (``bound`` bounds every entry)."""
    if bound * max(values.size, 1) > _INT64_SAFE:
        raise _Fallback
    return int(values.sum())


# ----------------------------------------------------------------------
# generic join on sorted packed-prefix arrays, and the bag kernel
# ----------------------------------------------------------------------


class _Part(NamedTuple):
    """One input of the array generic join: variable names and the
    parallel ``uint32`` columns (a relation's, or a slice of them — the
    sort below deduplicates, so a slice is a projection)."""

    variables: tuple[str, ...]
    columns: list[np.ndarray]


class _Sorted(NamedTuple):
    """Sorted-prefix state of one join, shared by both traversals.

    Atom ``a``'s columns are taken in the global variable order and
    packed into one mixed-radix ``int64`` key per row;
    ``prefixes[a][d]`` is the sorted array of *distinct* packed keys of
    its first ``d + 1`` columns — level ``d`` of a trie, flattened, with
    the children of prefix ``k`` occupying the contiguous key range
    ``[k * r, (k + 1) * r)`` for ``r = radices[a][d]``.
    ``advancing[level]`` lists the ``(atom, depth)`` pairs that bind
    that level's variable.
    """

    radices: list[list[int]]
    prefixes: list[list[np.ndarray]]
    advancing: list[list[tuple[int, int]]]


def _shared_radices(
    atoms: Sequence[JoinAtom], matrices: Sequence[np.ndarray]
) -> dict[str, int]:
    """Per variable, an exclusive bound on its cells across *all* atoms
    (one max scan per matrix).  Shared, because a prefix key is extended
    with values that another atom proposed."""
    radix_of: dict[str, int] = {}
    for atom, matrix in zip(atoms, matrices):
        tops = matrix.max(axis=0, initial=0).tolist()
        for v, top in zip(atom.variables, tops):
            radix_of[v] = max(radix_of.get(v, 1), int(top) + 1)
    return radix_of


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of an ascending array (run starts — much
    cheaper than ``np.unique`` on the short arrays a bag join sorts)."""
    if keys.size < 2:
        return keys
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _sort_parts(
    parts: Sequence[_Part], order: Sequence[str], radix_of: dict[str, int]
) -> _Sorted:
    """Pack, sort and deduplicate every part's full-row keys once,
    then peel the shorter prefixes off by floor division.  Raises
    :class:`_Fallback` when a part's keys do not fit 62 bits."""
    level_of = {v: i for i, v in enumerate(order)}
    state = _Sorted([], [], [[] for _ in order])
    for a, part in enumerate(parts):
        positions = sorted(
            range(len(part.variables)),
            key=lambda j: level_of[part.variables[j]],
        )
        radices = [radix_of[part.variables[j]] for j in positions]
        keys = pack_key_columns([part.columns[j] for j in positions], radices)
        if keys is None:
            raise _Fallback("key_overflow")
        keys.sort()
        levels = [_distinct_sorted(keys)]
        for radix in reversed(radices[1:]):
            levels.append(_distinct_sorted(levels[-1] // radix))
        levels.reverse()
        state.radices.append(radices)
        state.prefixes.append(levels)
        for depth, j in enumerate(positions):
            state.advancing[level_of[part.variables[j]]].append((a, depth))
    return state


def _sorted_member_mask(segment: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted ``segment`` via
    ``searchsorted`` (no hashing, no table)."""
    if segment.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(segment, values)
    clipped = np.minimum(idx, segment.size - 1)
    return (idx < segment.size) & (segment[clipped] == values)


def _levelwise_join(state: _Sorted) -> np.ndarray:
    """Every satisfying assignment, as an ``int64`` matrix with one
    column per level — generic join run one level at a time over the
    whole frontier of partial assignments instead of one value at a
    time.

    Per level, each active atom's candidate range is found for every
    frontier row at once (``searchsorted`` on packed prefix keys); each
    row is expanded from its own **narrowest** range and the candidates
    are kept only where every other active atom has the extended prefix.
    The per-row pivot is what keeps the worst-case-optimal bound: a row
    costs the size of its smallest candidate set, as in the trie join,
    so the frontier never exceeds the AGM bound of the atoms seen so
    far — a fixed pivot atom (a pairwise join) can be quadratically
    larger on skew.
    """
    radices, prefixes, advancing = state
    rows = 1
    bound: list[np.ndarray] = []
    #: per atom, the packed prefix each frontier row has bound so far
    #: (``None`` before the atom's first level and after its last)
    prefix: list[np.ndarray | None] = [None] * len(prefixes)
    for active in advancing:
        tries = [prefixes[a][d] for a, d in active]
        steps = [radices[a][d] for a, d in active]
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
            starts, counts, pool = los[0], widths[0], tries[0] % steps[0]
        else:
            stacked = np.stack(widths)
            pivot = stacked.argmin(axis=0)
            at = np.arange(rows)
            counts = stacked[pivot, at]
            # one pool of candidate values, each atom's at its offset
            offsets = np.cumsum([0] + [t.size for t in tries[:-1]])
            starts = np.stack(los)[pivot, at] + offsets[pivot]
            pool = np.concatenate([t % step for t, step in zip(tries, steps)])
        row_idx, positions = _expand_ranges(starts, counts)
        values = pool[positions]
        extended = [base[row_idx] + values for base in bases]
        if len(active) > 1:
            keep = np.ones(values.size, dtype=bool)
            for t, keys in zip(tries, extended):
                keep &= _sorted_member_mask(t, keys)
            if not keep.all():
                row_idx = row_idx[keep]
                values = values[keep]
                extended = [keys[keep] for keys in extended]
        rows = int(values.size)
        if rows == 0:
            return np.empty((0, len(advancing)), dtype=np.int64)
        prefix = [p if p is None else p[row_idx] for p in prefix]
        for (a, d), keys in zip(active, extended):
            prefix[a] = keys if d + 1 < len(prefixes[a]) else None
        bound = [column[row_idx] for column in bound]
        bound.append(values)
    if not bound:
        return np.empty((1, 0), dtype=np.int64)
    return np.stack(bound, axis=1)


def _has_witness(state: _Sorted) -> bool:
    """Non-emptiness by depth-first generic join over the same state:
    at each level the narrowest active range proposes the values, the
    other active atoms filter them in one vectorized membership test
    each, and the search descends into the survivors one at a time —
    stopping at the first full assignment."""
    radices, prefixes, advancing = state
    last = len(advancing) - 1

    def recurse(level: int, prefix: list[int]) -> bool:
        active = advancing[level]
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
            values = values[
                _sorted_member_mask(prefixes[a][d][lo:hi], base + values)
            ]
            if values.size == 0:
                return False
        if level == last:
            return True
        for value in values.tolist():
            extended = list(prefix)
            for a, d in active:
                extended[a] = prefix[a] * radices[a][d] + value
            if recurse(level + 1, extended):
                return True
        return False

    return recurse(0, [0] * len(prefixes))


def _generic_setup(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None,
) -> _Sorted | None:
    """Sorted-prefix state for a flat generic join over ``atoms``, or
    ``None`` on fallback."""
    if not atoms or any(not atom.variables for atom in atoms):
        return None
    order = (
        list(variable_order)
        if variable_order
        else default_variable_order(atoms)
    )
    var_set = {v for atom in atoms for v in atom.variables}
    if set(order) != var_set:
        return None  # let the tuple path raise its usual error
    try:
        blocks = _require_blocks(atoms)
        _variable_kinds(atoms, blocks)
        matrices = [np.asarray(block.codes) for block in blocks]
        parts = [
            _Part(atom.variables, list(matrix.T))
            for atom, matrix in zip(atoms, matrices)
        ]
        return _sort_parts(parts, order, _shared_radices(atoms, matrices))
    except _Fallback:
        return None


def columnar_generic_join_count(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> int | None:
    """Assignment count via the level-wise array generic join, or
    ``None`` when the atoms are not columnar and the trie path must
    run."""
    if not _ENABLED:
        return None
    setup = _generic_setup(atoms, variable_order)
    if setup is None:
        return None
    return int(_levelwise_join(setup).shape[0])


def columnar_generic_join_boolean(
    atoms: Sequence[JoinAtom],
    variable_order: Sequence[str] | None = None,
) -> bool | None:
    """Non-emptiness via the depth-first array generic join (stops at
    the first witness), or ``None`` on fallback."""
    if not _ENABLED:
        return None
    setup = _generic_setup(atoms, variable_order)
    if setup is None:
        return None
    return _has_witness(setup)


_bag_fallback_sink: ContextVar[dict[str, int] | None] = ContextVar(
    "bag_fallback_sink", default=None
)


@contextmanager
def record_bag_fallbacks(counts: dict[str, int]) -> Iterator[None]:
    """Within the block, every ``None`` exit of
    :func:`columnar_materialise_bags` adds one to ``counts[reason]``
    (keys: :data:`BAG_FALLBACK_REASONS`)."""
    token = _bag_fallback_sink.set(counts)
    try:
        yield
    finally:
        _bag_fallback_sink.reset(token)


def columnar_materialise_bags(
    atoms: Sequence[JoinAtom], td: TreeDecomposition
) -> list[Relation] | None:
    """One *columnar* relation per bag of ``td`` — the worst-case
    optimal join of the projections ``π_{bag ∩ vars(e)} R_e`` — or
    ``None`` (with the reason recorded, see
    :func:`record_bag_fallbacks`) when the tuple path must run.

    A projection is a column slice of the atom's code matrix (the
    packed-key sort of :func:`_sort_parts` deduplicates it); the join is
    :func:`_levelwise_join`; the result is wrapped over the atoms' own
    codebook with per-variable column kinds, so the bag relations feed
    the columnar Yannakakis kernels and no row is ever decoded.  Input
    matrices (possibly read-only maps of a cache entry) are only read.
    """
    try:
        if not _ENABLED:
            raise _Fallback("kernels_off")
        blocks = _require_blocks(atoms)
        kind_of = _variable_kinds(atoms, blocks)
        matrices = [np.asarray(block.codes) for block in blocks]
        radix_of = _shared_radices(atoms, matrices)
        book = blocks[0].book if blocks else None
        bags: list[Relation] = []
        for i, bag in enumerate(td.bags):
            bag_vars = sorted(bag, key=str)
            parts: list[_Part] = []
            for atom, matrix in zip(atoms, matrices):
                shared = [
                    j for j, v in enumerate(atom.variables) if v in bag
                ]
                if shared:
                    parts.append(
                        _Part(
                            tuple(atom.variables[j] for j in shared),
                            [matrix[:, j] for j in shared],
                        )
                    )
            covered = {v for part in parts for v in part.variables}
            if set(bag_vars) - covered:
                raise ValueError(
                    f"bag {bag_vars} contains vertices covered by no atom"
                )
            order = default_variable_order(parts)
            joined = _levelwise_join(_sort_parts(parts, order, radix_of))
            codes = joined[:, [order.index(v) for v in bag_vars]]
            block = ColumnBlock(
                codes.astype(CODE_DTYPE),
                [kind_of[v] for v in bag_vars],
                book,
            )
            bags.append(Relation.from_columns(f"bag{i}", bag_vars, block))
        return bags
    except _Fallback as fallback:
        sink = _bag_fallback_sink.get()
        if sink is not None:
            sink[fallback.reason] += 1
        return None


# ----------------------------------------------------------------------
# full evaluation: full reducer + output-projected joins on frames
# ----------------------------------------------------------------------


class _Frame:
    """An intermediate join result as parallel code columns: the
    columnar stand-in for the tuple path's intermediate relations.
    ``rows`` is kept explicitly so zero-width frames (everything
    projected away) still know whether they hold the empty tuple."""

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
    book,
) -> None:
    """Intersect ``target``'s survivor mask with membership of its
    shared-column keys among ``source``'s surviving keys (one direction
    of the full reducer's semijoin sweeps)."""
    shared, t_idx, s_idx = _shared_code_columns(blocks, atoms, target, source)
    if not shared:
        if not alive[source].any():
            alive[target][:] = False
        return
    target_cols = [np.asarray(blocks[target].column(j)) for j in t_idx]
    source_cols = [
        np.asarray(blocks[source].column(j))[alive[source]] for j in s_idx
    ]
    target_keys, source_keys, radices = edge_keys(
        book, target_cols, source_cols
    )
    alive[target] &= key_isin(target_keys, source_keys, radices)


def columnar_yannakakis_boolean(
    atoms: Sequence[JoinAtom], tree: nx.Graph
) -> bool | None:
    """Boolean acyclic evaluation over code arrays, or ``None`` when
    the caller must fall back.

    Mirrors :func:`repro.engine.yannakakis.yannakakis_boolean`: nodes of
    ``tree`` index into ``atoms``; per component, a bottom-up sweep
    semijoins each parent with its children and the query is true iff
    every root keeps a surviving row.  A shared column that is a
    verbatim id on either side is incomparable as raw ints and an
    unpackable key has no cheap comparable form — both answer ``None``.
    """
    if not _ENABLED:
        return None
    try:
        blocks = _require_blocks(atoms)
        if any(block.row_count == 0 for block in blocks):
            return False
        if tree.number_of_nodes() == 0:
            return True
        book = blocks[0].book
        alive = [np.ones(block.row_count, dtype=bool) for block in blocks]
        for component in nx.connected_components(tree):
            order, parent = _rooted_orders(tree, min(component))
            for node in reversed(order):
                p = parent[node]
                if p is None:
                    continue
                _semijoin_mask(blocks, atoms, alive, p, node, book)
                if not alive[p].any():
                    return False
    except _Fallback:
        return None
    return True


def _unique_row_index(
    cols: Sequence[np.ndarray], radices: Sequence[int] | None = None
) -> np.ndarray:
    """Indices of one representative row per distinct row (any order —
    consumers are building sets).  Packs rows into scalars when the
    per-column value ranges allow — using the caller's O(1) radix
    bounds when given, rescanning for tight per-column maxima only if
    those bounds overflow the packable range — else ``np.unique`` over
    the row matrix."""
    if radices is not None:
        packed = pack_key_columns(cols, radices)
        if packed is not None:
            _, first = np.unique(packed, return_index=True)
            return first
    tight = [int(c.max()) + 1 if c.size else 1 for c in cols]
    packed = pack_key_columns(cols, tight)
    if packed is not None:
        _, first = np.unique(packed, return_index=True)
        return first
    matrix = np.stack([c.astype(np.int64, copy=False) for c in cols], axis=1)
    _, first = np.unique(matrix, axis=0, return_index=True)
    return first


def _join_frames(left: _Frame, right: _Frame, kind_of, book) -> _Frame:
    """Natural join of two frames on their shared variables: sort the
    right side's packed keys once, locate each left row's match range
    with ``searchsorted``, and expand the ranges with ``np.repeat``
    index arithmetic."""
    shared = [v for v in left.vars if v in right.vars]
    right_only = [j for j, v in enumerate(right.vars) if v not in left.vars]
    if shared:
        for v in shared:
            if kind_of[v] != COL_CODE:
                raise _Fallback
        left_cols = [left.cols[left.vars.index(v)] for v in shared]
        right_cols = [right.cols[right.vars.index(v)] for v in shared]
        left_keys, right_keys, _ = edge_keys(book, left_cols, right_cols)
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
    """Project onto ``keep`` and deduplicate rows — the frame analogue
    of the tuple path's set-semantics projection.  ``radix_of`` carries
    the per-variable O(1) value bounds (codebook domain size for code
    columns) so dedup keys pack without rescanning columns."""
    cols = [frame.cols[frame.vars.index(v)] for v in keep]
    if not cols:
        return _Frame((), [], 1 if frame.rows else 0)
    unique = _unique_row_index(cols, [radix_of[v] for v in keep])
    return _Frame(keep, [c[unique] for c in cols], int(unique.size))


def _decode_frame(frame: _Frame, kind_of, book) -> list[tuple]:
    """Decode a frame's rows into Python tuples — the only place the
    full-evaluation kernel touches decoded values, and it runs on the
    final (projected, deduplicated) output rows alone."""
    if not frame.vars:
        return [()] * frame.rows
    columns: list[list] = []
    for v, col in zip(frame.vars, frame.cols):
        raw = col.tolist()
        if kind_of[v] == COL_CODE:
            values = book.values
            columns.append([values[c] for c in raw])
        else:
            columns.append(raw)
    return list(zip(*columns))


def columnar_yannakakis_full(
    atoms: Sequence[JoinAtom],
    tree: nx.Graph,
    output: Sequence[str] | None = None,
) -> Relation | None:
    """Full acyclic evaluation over code arrays, or ``None`` when the
    caller must fall back to the tuple path.

    Mirrors :func:`repro.engine.yannakakis.yannakakis_full`: the full
    reducer (bottom-up then top-down semijoin sweeps) runs on survivor
    masks, the bottom-up joins keep only output variables plus each
    node's own bag schema (running intersection), and components are
    joined at the end.  Output rows are decoded through the codebook
    only once, at the very end.
    """
    if not _ENABLED:
        return None
    try:
        blocks = _require_blocks(atoms)
        kind_of = _variable_kinds(atoms, blocks)
    except _Fallback:
        return None
    book = blocks[0].book if blocks else None
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
        return Relation("result", out_vars, set())
    out_set = set(out_vars)
    try:
        alive = [np.ones(block.row_count, dtype=bool) for block in blocks]
        results: list[_Frame] = []
        for component in nx.connected_components(tree):
            root = min(component)
            order, parent = _rooted_orders(tree, root)
            for node in reversed(order):
                p = parent[node]
                if p is not None:
                    _semijoin_mask(blocks, atoms, alive, p, node, book)
            for node in order:
                p = parent[node]
                if p is not None:
                    _semijoin_mask(blocks, atoms, alive, node, p, book)
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
                joined = _join_frames(acc[p], acc[node], kind_of, book)
                keep = [
                    v
                    for v in joined.vars
                    if v in out_set or v in atoms[p].variables
                ]
                acc[p] = _project_frame(joined, keep, radix_of)
            results.append(acc[root])
        final = results[0]
        for frame in results[1:]:
            final = _join_frames(final, frame, kind_of, book)
    except _Fallback:
        return None
    present = [v for v in out_vars if v in final.vars]
    final = _project_frame(final, present, radix_of)
    return Relation("result", present, _decode_frame(final, kind_of, book))
