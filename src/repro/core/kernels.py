"""Array-backed inference kernels: flat type state and batched hot-loop math.

The interactive hot loop — lookahead scoring, propagation, type-status
recheck — works *type-wise*: every quantity it needs is a function of the
distinct equality types (bitmasks), the per-type unlabeled counts, and the
consistent space ``(M, N)``.  This module keeps that state in flat parallel
numpy arrays instead of per-type Python objects and exposes each hot-loop
operation as a kernel over those arrays:

* :class:`TypeTable` — the aligned vectors ``masks`` / ``certain`` /
  ``unlabeled`` of one session, built without a copy over the shared
  per-type arrays of an
  :class:`~repro.core.equality_types.EqualityTypeIndex` (itself derived
  from the interned code arrays of :mod:`repro.relational.columnar`), in
  the index's type order.  :class:`~repro.core.state.InferenceState` holds
  one.
* :meth:`TypeTable.refresh_certain` — re-derive every (stale) certain label
  against ``(M, N)`` in one vectorized pass, reporting the informative→certain
  flips propagation needs.
* :func:`prune_counts_batch` — the lookahead kernel: score *all* candidate
  restricted types against one informative snapshot in one call, testing
  only the antichain of the negative types restricted to ``M``.  It has two
  forms.  The *bit-sliced* one transposes the informative side into one
  bitset over the I types per atom of ``M``; every test is a few row
  gathers from 8-atom subset tables of those bitsets ANDed together, and
  every weighted sum is exact as popcounts over the bit planes of the
  counts.  The *row-blocked* one walks the candidates in cache-sized row
  blocks (``_BLOCK_CELLS`` cells) over reused buffers and takes both sums
  as float64 matrix–vector products, exact while the counts sum below 2⁵³.
* :class:`TypeGroups` and :func:`score_levels` — the informative snapshot
  grouped by restricted type, and the kernel's counts ranked by a scalar
  score called once per distinct pair, so a step's grouping, scoring and
  maximum run on arrays.
* :func:`certain_codes` — batch classification of arbitrary mask lists (the
  loop-guard scan).

**Lanes.**  Each computation has one implementation; the input decides the
dtype it runs on, and this module sets no lane rule of its own for arrays.
The index's mask array is int64 over at most 62 atoms (subset tests
``m & ~t == 0`` are exact in two's complement below bit 63) and a numpy
``object`` array of Python ints past that
(:func:`~repro.relational.columnar.mask_lane`), on which the same array
expressions run exactly at any width; its size array is int64 below 2⁶²
tuples and ``object`` past it.  A list argument takes the int64 lane while
every value fits below 2⁶², ``object`` otherwise.  On the int64
lane the lookahead kernel picks its form by size: row-blocked below
``_BITSLICE_CELLS`` cells while the counts sum below 2⁵³, bit-sliced
otherwise.  On the object lane it is always bit-sliced, whose per-atom
layout does not depend on the mask width.

**Copy-on-write.**  :meth:`TypeTable.copy` is O(1): the clone shares the
arrays with its parent and both sides mark their ``unlabeled`` column
borrowed; the first decrement on either side copies that (small, per-type)
column, and a refresh replaces ``certain`` instead of writing into it.  A
fresh table borrows ``unlabeled`` from the index the same way.  This is
what makes :meth:`InferenceState.simulate_label
<repro.core.state.InferenceState.simulate_label>` cheap enough for deep
lookahead.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as _np

#: Codes of the ``certain`` vector (one byte per type).
UNKNOWN = 0  # consistent queries disagree -> the type is informative
CERTAIN_POSITIVE = 1
CERTAIN_NEGATIVE = 2

_LABEL_OF = {UNKNOWN: None, CERTAIN_POSITIVE: True, CERTAIN_NEGATIVE: False}

#: Values below this fit the int64 lane of a list argument (see
#: :func:`_lane`); anything past it takes the object lane.
_INT64_LIMIT = 1 << 62

#: The row-blocked lookahead kernel takes its weighted sums in float64,
#: exact only while every partial sum of the (non-negative) counts stays
#: below 2⁵³.
_EXACT_FLOAT_LIMIT = 1 << 53

#: Cells (candidates × informative types) per row block of the row-blocked
#: lookahead kernel.  Its block buffers then take ~0.6 MB and stay
#: cache-resident; a sweep over 16K–1M cells per block was fastest at 32K.
_BLOCK_CELLS = 1 << 15

#: Lookahead calls of at least this many cells take the bit-sliced kernel.
#: Below it, building the per-call subset tables costs more than the whole
#: row-blocked call (the two cross over between 16K and 32K cells).
_BITSLICE_CELLS = 1 << 14

#: uint64 words (candidates × ⌈I/64⌉) per row block of the bit-sliced
#: kernel: its three block buffers take 384 KB whatever the call's size.
#: Blocks of 2¹⁴–2¹⁶ words scored a guided-wide pass equally fast.
_BITSLICE_BLOCK_WORDS = 1 << 14


def _lane(*columns: Sequence[int]):
    """int64 while every value fits below 2⁶², else object.

    An array keeps the lane it was built in.
    """
    for column in columns:
        if isinstance(column, _np.ndarray):
            if column.dtype == object:
                return object
        elif len(column) and max(column) >= _INT64_LIMIT:
            return object
    return _np.int64


def certain_codes(
    masks: Sequence[int], positive_mask: int, negative_masks: Sequence[int]
) -> list[int]:
    """Certain-label codes for a batch of type masks, in one vector pass.

    Mirrors :meth:`ConsistentQuerySpace.certain_label_for
    <repro.core.space.ConsistentQuerySpace.certain_label_for>`: certain
    positive iff ``M ⊆ E(t)`` (no rejecting query), else certain negative iff
    ``M ∩ E(t)`` is contained in some negative type (no selecting query).
    """
    lane = _lane((positive_mask,), masks)
    return _certain_codes(_np.asarray(masks, dtype=lane), positive_mask, negative_masks).tolist()


def _certain_codes(masks_arr, positive_mask: int, negative_masks: Sequence[int]):
    """The certain-label codes of a mask array, in the array's lane.

    Only ``n ∩ M`` of a negative type matters, so every operand fits the
    lane of ``M``.
    """
    positive = (positive_mask & ~masks_arr) == 0
    restricted = positive_mask & masks_arr
    negative = _np.zeros(len(masks_arr), dtype=bool)
    for neg in negative_masks:
        negative |= (restricted & ~(neg & positive_mask)) == 0
    codes = _np.full(len(masks_arr), UNKNOWN, dtype=_np.int8)
    codes[negative] = CERTAIN_NEGATIVE
    codes[positive] = CERTAIN_POSITIVE  # positive takes precedence
    return codes


def prune_counts_batch(
    info_masks: Sequence[int],
    info_counts: Sequence[int],
    restricted_candidates: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
    columns: bool = False,
):
    """``(resolved_if_positive, resolved_if_negative)`` per candidate type.

    ``info_masks`` / ``info_counts`` are the informative snapshot (full type
    masks and their unlabeled counts); each candidate is given by its
    *restricted* type ``E(t) ∩ M``, which fully determines its counts.  Every
    candidate is restricted with ``M`` on entry, so bits outside ``M`` never
    change a score.  Each of the three sequences may be a list or an array
    (the snapshot of a :class:`TypeTable` and its :class:`TypeGroups`),
    which is taken in its own lane without a conversion.  The result is a
    list of pairs; with ``columns`` it is the two count columns instead, as
    arrays (what :func:`score_levels` takes).

    No K×I array is ever held, and only the negatives that stay maximal
    once restricted to ``M`` are tested.  On the int64 lane, calls of at
    least ``_BITSLICE_CELLS`` candidates × informative types, or whose
    counts sum to 2⁵³ or more, take the bit-sliced kernel (per-atom bitsets
    over the I types, 8-atom subset tables and exact popcount sums); smaller
    calls score the candidates in row blocks of about ``_BLOCK_CELLS``
    cells.  Masks or counts past the int64 lane always take the bit-sliced
    kernel, which then sums as Python ints.
    """
    lane = _lane((positive_mask,), info_masks, restricted_candidates)
    masks = _np.asarray(info_masks, dtype=lane)
    total = int(info_counts.sum()) if isinstance(info_counts, _np.ndarray) else sum(info_counts)
    counts_lane = _lane((total,))
    counts = _np.asarray(info_counts, dtype=counts_lane)
    candidates = _np.asarray(restricted_candidates, dtype=lane) & positive_mask
    cells = len(candidates) * len(masks)
    if not cells:
        sums = _np.zeros((2, len(candidates)), dtype=counts_lane)
    elif lane is _np.int64 and cells < _BITSLICE_CELLS and total < _EXACT_FLOAT_LIMIT:
        sums = _rowblocked_prune_counts(masks, counts, candidates, positive_mask, negative_masks)
    else:
        sums = _bitsliced_prune_counts(masks, counts, candidates, positive_mask, negative_masks)
    return (sums[0], sums[1]) if columns else list(zip(*sums.tolist()))


def score_levels(
    if_positive: Sequence[int],
    if_negative: Sequence[int],
    value: Callable[[int, int], float],
) -> Iterator[list[int]]:
    """Candidate positions grouped by ``value(a, b)`` of their counts, best first.

    Takes the count columns (arrays) of :func:`prune_counts_batch`.  ``value`` is a
    scalar Python call, made once per *distinct* ``(a, b)`` pair: scores stay
    exactly what the scalar function returns (a vectorized ``log2`` may
    differ from :func:`math.log2` in the last ulp, which would move ties),
    while the grouping and the level tests run on arrays.  The best level
    costs one maximum; later ones are sorted only when a caller reads on.
    """
    if not len(if_positive):
        return
    span = int(if_negative.max()) + 1
    if (int(if_positive.max()) + 1) * span > _INT64_LIMIT:
        # The pair keys would overflow int64: key them as Python ints.
        if_positive = if_positive.astype(object)
    # One key per pair, so sorting the keys groups equal pairs.
    keys = if_positive * span + if_negative
    order = keys.argsort()
    ordered = keys[order]
    starts = _np.ones(len(keys), dtype=bool)
    _np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inverse = _np.empty(len(keys), dtype=_np.intp)
    inverse[order] = _np.cumsum(starts) - 1
    first = order[starts]
    values = [
        value(a, b)
        for a, b in zip(if_positive[first].tolist(), if_negative[first].tolist(), strict=True)
    ]
    scores = _np.asarray(values)[inverse]
    best = max(values)
    yield _np.flatnonzero(scores == best).tolist()
    for level in sorted({v for v in values if v < best}, reverse=True):
        yield _np.flatnonzero(scores == level).tolist()


def _antichain_complements(positive_mask: int, negative_masks: Sequence[int]) -> list[int]:
    """The complements of the maximal members of ``{n ∩ M}``.

    A candidate is a subset of ``M``, so ``E(t) ∩ M ∩ m ⊆ n`` iff it is a
    subset of ``n ∩ M``; and a restricted negative contained in another one
    can only pass where the larger one passes too.  Only the maximal
    members need testing, each as ``x & ~(n ∩ M) == 0``.
    """
    restricted = {neg & positive_mask for neg in negative_masks}
    complements = []
    for member in restricted:
        for other in restricted:
            if member != other and member & ~other == 0:
                break
        else:
            complements.append(~member)
    return complements


def _rowblocked_prune_counts(
    info_masks: Sequence[int],
    info_counts: Sequence[int],
    restricted_candidates: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
) -> list[tuple[int, int]]:
    masks = _np.asarray(info_masks, dtype=_np.int64)
    weights = _np.asarray(info_counts, dtype=_np.float64)
    cand = _np.asarray(restricted_candidates, dtype=_np.int64)[:, None]
    under_m = masks & positive_mask
    complements = _antichain_complements(positive_mask, negative_masks)
    total = len(cand)
    rows = max(1, min(total, _BLOCK_CELLS // len(masks)))
    sums = _np.empty((2, total), dtype=_np.int64)
    # The block buffers are allocated by the first block's own operations,
    # sized to it, and reused by every later block through ``out=``; a K×I
    # temporary would stream every cell through memory once per negative.
    restricted = scratch = hit = test = None
    for start in range(0, total, rows):
        # The last block ends at the last candidate and may overlap the one
        # before it: the overlapped rows are scored twice, identically.
        start = min(start, total - rows)
        stop = start + rows
        block = cand[start:stop]
        # Positive answer: type m is resolved iff E(t) ∩ M ⊆ m, or
        # E(t) ∩ M ∩ m lies inside some negative type.
        restricted = _np.bitwise_and(block, masks, out=restricted)
        hit = _np.equal(restricted, block, out=hit)
        for complement in complements:
            scratch = _np.bitwise_and(restricted, complement, out=scratch)
            test = _np.equal(scratch, 0, out=test)
            hit |= test
        # Float64 matrix-vector products: every partial sum is an integer
        # below 2⁵³, so storing them into int64 is exact.
        sums[0, start:stop] = hit @ weights
        # Negative answer: type m is resolved iff M ∩ m ⊆ E(t) ∩ M.
        scratch = _np.bitwise_or(under_m, block, out=scratch)
        test = _np.equal(scratch, block, out=test)
        sums[1, start:stop] = test @ weights
    return sums


def _bit_columns(values, width: int = 64):
    """The bits of each value, one ``uint8`` column per bit.

    An int64 array is read through its bytes, 64 columns.  Python ints (the
    object lane) are read through :meth:`int.to_bytes`, in whole bytes
    covering 64 bits, ``width`` bits and every bit any value sets.
    """
    if values.dtype == _np.int64:
        octets = values.astype("<i8", copy=False).reshape(-1, 1).view(_np.uint8)
    else:
        size = (max([64, width, *(value.bit_length() for value in values)]) + 7) // 8
        raw = b"".join(value.to_bytes(size, "little") for value in values)
        octets = _np.frombuffer(raw, dtype=_np.uint8).reshape(-1, size)
    return _np.unpackbits(octets, axis=1, bitorder="little")


def _bitsets(rows, words: int):
    """Each 0/1 ``uint8`` row packed into ``words`` uint64 words, zero-padded.

    Every bitset maps column j to the same bit of word ``j // 64``, which is
    all the ANDs and popcounts of the bit-sliced kernel rely on.
    """
    packed = _np.packbits(rows, axis=1, bitorder="little")
    padded = _np.zeros((len(rows), 8 * words), dtype=_np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view(_np.uint64)


def _chunk_codes(values, atoms, chunks: int, width: int):
    """Each value compacted to the atom order of ``M``: one byte per 8 atoms."""
    bits = _np.zeros((len(values), 8 * chunks), dtype=_np.uint8)
    bits[:, : len(atoms)] = _bit_columns(values, width)[:, atoms]
    return _np.packbits(bits, axis=1, bitorder="little")


def _bit_planes(counts, words: int):
    """The counts as bit planes: a bitset over the types per bit some count sets."""
    bits = _bit_columns(counts)
    shifts = _np.flatnonzero(bits.any(axis=0))
    return _bitsets(bits[:, shifts].T, words), shifts.tolist()


def _subset_tables(bitsets, chunks: int):
    """Per 8-atom chunk, the ANDs of its atoms' bitsets and of their complements.

    Row ``s`` of ``holds[k]`` is the AND of ``bitsets[8k + i]`` over the bits
    ``i`` of ``s``, and row ``s`` of ``lacks[k]`` the AND of their
    complements (both all ones for the empty subset).  Every table is built
    at once, in eight doublings: the rows with bit ``i`` set are the rows
    below ``2^i`` ANDed with atom ``i``'s bitset.  Atoms past the last one of
    ``M`` pad the last chunk with all-ones rows in both tables, so a code may
    set their bits (``~c`` stands for ``M ∖ c``).
    """
    words = bitsets.shape[1]
    atoms = _np.full((2, 8 * chunks, words), ~_np.uint64(0))
    atoms[0, : len(bitsets)] = bitsets
    _np.invert(bitsets, out=atoms[1, : len(bitsets)])
    atoms = atoms.reshape(2 * chunks, 8, 1, words)
    tables = _np.empty((2 * chunks, 256, words), dtype=_np.uint64)
    tables[:, 0] = ~_np.uint64(0)
    for i in range(8):
        _np.bitwise_and(tables[:, : 1 << i], atoms[:, i], out=tables[:, 1 << i : 2 << i])
    return tables.reshape(2, chunks, 256, words)


def _and_rows(tables, codes, out, scratch):
    """``out[c]`` = the AND over chunks ``k`` of ``tables[k, codes[k, c]]``."""
    tables[0].take(codes[0], axis=0, out=out)
    for table, column in zip(tables[1:], codes[1:], strict=True):
        out &= table.take(column, axis=0, out=scratch)
    return out


def _weighted_sums(hits, planes, shifts, scratch, lane):
    """Per row of ``hits``, the exact sum of the counts of its set bits.

    ``planes[p]`` holds bit ``shifts[p]`` of every count, so a row's sum is
    ``Σ_p popcount(row & planes[p]) << shifts[p]``, taken in the counts'
    lane.
    """
    sums = _np.zeros(len(hits), dtype=lane)
    for plane, shift in zip(planes, shifts, strict=True):
        _np.bitwise_and(hits, plane, out=scratch)
        popcounts = _np.bitwise_count(scratch).sum(axis=1, dtype=_np.int64)
        sums += popcounts.astype(lane, copy=False) << shift
    return sums


def _bitsliced_prune_counts(
    info_masks,
    info_counts,
    candidates,
    positive_mask: int,
    negative_masks: Sequence[int],
):
    # Transpose the informative side once: per atom a of M, bit j of B[a]
    # is set iff type j holds a.  Each test below is an AND of B[a] or ~B[a]
    # over an atom set, read from 8-atom subset tables one chunk at a time.
    width = positive_mask.bit_length()
    lane = info_masks.dtype
    atoms = _np.flatnonzero(_bit_columns(_np.asarray([positive_mask], dtype=lane), width)[0])
    chunks = max(1, -(-len(atoms) // 8))
    words = -(-len(info_masks) // 64)
    bitsets = _bitsets(_bit_columns(info_masks, width)[:, atoms].T, words)
    holds, lacks = _subset_tables(bitsets, chunks)
    planes, shifts = _bit_planes(info_counts, words)
    codes = _chunk_codes(candidates, atoms, chunks, width).T.copy()
    members = _chunk_codes(
        _np.asarray(
            [~complement for complement in _antichain_complements(positive_mask, negative_masks)],
            dtype=lane,
        ),
        atoms,
        chunks,
        width,
    )
    total = len(candidates)
    rows = max(1, min(total, _BITSLICE_BLOCK_WORDS // words))
    buffers = [_np.empty((rows, words), dtype=_np.uint64) for _ in range(3)]
    sums = _np.empty((2, total), dtype=info_counts.dtype)
    for start in range(0, total, rows):
        block = codes[:, start : start + rows]
        stop = start + block.shape[1]
        hit, test, scratch = (buffer[: block.shape[1]] for buffer in buffers)
        # Positive answer: type r is resolved iff c ⊆ r, or c ∩ r ⊆ n for
        # some negative n, that is r holds no atom of c ∖ n.
        _and_rows(holds, block, hit, scratch)
        for member in members:
            hit |= _and_rows(lacks, block & ~member[:, None], test, scratch)
        sums[0, start:stop] = _weighted_sums(hit, planes, shifts, scratch, sums.dtype)
        # Negative answer: type r is resolved iff r ∩ M ⊆ c, that is r holds
        # no atom of M ∖ c.
        _and_rows(lacks, ~block, test, scratch)
        sums[1, start:stop] = _weighted_sums(test, planes, shifts, scratch, sums.dtype)
    return sums


# --------------------------------------------------------------------- #
# Grouping the informative snapshot by restricted type
# --------------------------------------------------------------------- #
class TypeGroups:
    """An informative snapshot grouped by restricted type ``E(t) ∩ M``.

    ``restricted`` holds the distinct restricted types in ascending order,
    as an array in the snapshot's lane: the candidate set the lookahead
    kernel scores.  Every lookahead quantity of a candidate tuple depends on
    its type only through this restriction, so groups, not tuples, are what
    the strategies score; :meth:`members` maps the winning groups back to
    their full types.
    """

    __slots__ = ("restricted", "_masks", "_counts", "_inverse")

    def __init__(self, masks, counts, positive_mask: int) -> None:
        self._masks = masks
        self._counts = counts
        self.restricted, self._inverse = _np.unique(masks & positive_mask, return_inverse=True)

    def __len__(self) -> int:
        return len(self.restricted)

    def totals(self) -> list[int]:
        """The unlabeled count of each group, summed exactly."""
        totals = _np.zeros(len(self.restricted), dtype=self._counts.dtype)
        _np.add.at(totals, self._inverse, self._counts)
        return totals.tolist()

    def members(self, groups: Sequence[int]) -> list[int]:
        """The full type masks of the given groups, in snapshot order."""
        selected = _np.zeros(len(self.restricted), dtype=bool)
        selected[list(groups)] = True
        return self._masks[selected[self._inverse]].tolist()


# --------------------------------------------------------------------- #
# The type table
# --------------------------------------------------------------------- #
class TypeTable:
    """The per-type state of one session: masks, certain labels, unlabeled counts.

    Rows are the distinct equality types, in the order of the ``masks`` and
    ``sizes`` arrays it is built over (an
    :class:`~repro.core.equality_types.EqualityTypeIndex`'s
    :attr:`~repro.core.equality_types.EqualityTypeIndex.mask_array` and
    :attr:`~repro.core.equality_types.EqualityTypeIndex.size_array`), with
    ``rows`` mapping each mask to its row.  None of the three is copied, and
    the arrays' dtypes are the table's lanes.  ``certain`` starts all
    UNKNOWN and ``unlabeled`` at ``sizes``; both are the mutable columns.
    ``certain`` is replaced, never written in place, and ``unlabeled`` is
    borrowed until :meth:`_own` copies it on the first decrement, so
    :meth:`copy` can lend both out.  Every mutation drops the informative
    snapshot, which is otherwise taken once between two mutations
    (:meth:`informative_arrays`).
    """

    __slots__ = ("_masks", "_rows", "_certain", "_unlabeled", "_owned", "_snapshot")

    def __init__(self, masks, sizes, rows: Mapping[int, int]) -> None:
        self._masks = masks
        self._rows = rows
        self._certain = _np.zeros(len(masks), dtype=_np.int8)
        self._unlabeled = sizes
        self._owned = False
        self._snapshot = None

    def __len__(self) -> int:
        return len(self._masks)

    def _own(self) -> None:
        self._snapshot = None
        if not self._owned:
            self._unlabeled = self._unlabeled.copy()
            self._owned = True

    def certain_of(self, mask: int) -> bool | None:
        """The memoised certain label of one type (``None`` = informative)."""
        return _LABEL_OF[int(self._certain[self._rows[mask]])]

    def unlabeled_of(self, mask: int) -> int:
        """Number of unlabeled tuples of one type."""
        return int(self._unlabeled[self._rows[mask]])

    def decrement_unlabeled(self, mask: int) -> None:
        """One tuple of the type was labeled."""
        self._own()
        self._unlabeled[self._rows[mask]] -= 1

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        """Re-derive certain labels against ``(M, N)``; report new flips.

        With ``only_unknown`` (the consistent-mode invariant) only currently
        informative rows take their new label; otherwise every row does.
        Returns the masks that went informative→certain-positive and
        informative→certain-negative, in table order.
        """
        self._snapshot = None
        new_codes = _certain_codes(self._masks, positive_mask, negative_masks)
        was_unknown = self._certain == UNKNOWN
        flip_pos = was_unknown & (new_codes == CERTAIN_POSITIVE)
        flip_neg = was_unknown & (new_codes == CERTAIN_NEGATIVE)
        self._certain = _np.where(was_unknown, new_codes, self._certain) if only_unknown else new_codes
        return self._masks[flip_pos].tolist(), self._masks[flip_neg].tolist()

    def informative_arrays(self):
        """The informative snapshot: masks and unlabeled counts, table order.

        A type is informative when its certain label is unknown and it still
        has unlabeled tuples.  Both are arrays in the table's lanes; callers
        must not mutate either.  The snapshot is taken once and reused until
        the next mutation.
        """
        if self._snapshot is None:
            # Boolean indexing copies, so later in-place decrements never
            # reach a snapshot a caller still holds.
            selector = (self._certain == UNKNOWN) & (self._unlabeled > 0)
            self._snapshot = self._masks[selector], self._unlabeled[selector]
        return self._snapshot

    def informative_items(self) -> list[tuple[int, int]]:
        """``(mask, unlabeled_count)`` of every informative type, table order."""
        masks, counts = self.informative_arrays()
        return list(zip(masks.tolist(), counts.tolist(), strict=True))

    def informative_count(self) -> int:
        """Total unlabeled tuples across informative types."""
        return int(self.informative_arrays()[1].sum())

    def has_informative(self) -> bool:
        """Whether any informative tuple remains."""
        return len(self.informative_arrays()[0]) > 0

    def copy(self) -> TypeTable:
        """An O(1) copy-on-write clone sharing the column arrays."""
        clone = TypeTable.__new__(TypeTable)
        clone._masks = self._masks
        clone._rows = self._rows
        clone._certain = self._certain
        clone._unlabeled = self._unlabeled
        clone._snapshot = self._snapshot
        clone._owned = False
        self._owned = False
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TypeTable(types={len(self._masks)}, "
            f"informative={len(self.informative_arrays()[0])}, owned={self._owned})"
        )
