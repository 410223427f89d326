"""Array-backed inference kernels: flat type state and batched hot-loop math.

The interactive hot loop — lookahead scoring, propagation, type-status
recheck — works *type-wise*: every quantity it needs is a function of the
distinct equality types (bitmasks), the per-type unlabeled counts, and the
consistent space ``(M, N)``.  This module keeps that state in flat parallel
arrays instead of per-type Python objects and exposes each hot-loop operation
as a kernel over those arrays:

* :class:`TypeTable` (via :func:`make_type_table`) — the aligned vectors
  ``masks`` / ``sizes`` / ``certain`` / ``unlabeled``, in the order the
  distinct types were interned by
  :class:`~repro.core.equality_types.EqualityTypeIndex` (itself derived from
  the interned code arrays of :mod:`repro.relational.columnar`).  The table
  is the storage layer of
  :class:`~repro.core.informativeness.TypeStatusCache`.
* :meth:`TypeTable.refresh_certain` — re-derive every (stale) certain label
  against ``(M, N)`` in one vectorized pass, reporting the informative→certain
  flips propagation needs.
* :func:`prune_counts_batch` — the lookahead kernel: score *all* candidate
  restricted types against one informative snapshot in one call, testing
  only the antichain of the negative types restricted to ``M``.  The numpy
  path has two forms, chosen by the call's size.  Calls of at least
  ``_BITSLICE_CELLS`` candidates × informative types are *bit-sliced*: the
  informative side is transposed into one bitset over the I types per atom
  of ``M``, every test is a few row gathers from 8-atom subset tables of
  those bitsets ANDed together, and every weighted sum is exact as popcounts
  over the bit planes of the counts.  Smaller calls walk the candidates in
  cache-sized row blocks (``_BLOCK_CELLS`` cells) over reused buffers and
  take both sums as float64 matrix–vector products, exact while the counts
  sum below 2⁵³.
* :class:`TypeGroups` and :func:`score_levels` — the informative snapshot
  grouped by restricted type, and the kernel's counts ranked by a scalar
  score called once per distinct pair, so a step's grouping, scoring and
  maximum run on arrays.
* :func:`certain_codes` — batch classification of arbitrary mask lists (the
  loop-guard scan).

**Fast path and fallback.**  When numpy is importable and every mask/count
fits in a signed 64-bit lane, the kernels run as numpy array expressions
(bitmask subset tests are exact in int64 two's complement for masks below
bit 63, and the row-blocked lookahead kernel also needs its counts to sum
below 2⁵³);
otherwise a pure-Python implementation over :mod:`array` vectors with
identical semantics is used.  The backend is chosen per table/call by
:func:`default_backend`, overridable with the ``REPRO_KERNEL_BACKEND``
environment variable or the :func:`use_backend` context manager (which is how
the benchmarks compare python-vs-numpy traces in one process).

**Copy-on-write.**  :meth:`TypeTable.copy` is O(1): the clone shares the
array segments with its parent and both sides mark themselves borrowed; the
first mutation on either side copies the (small, per-type) arrays.  This is
what makes :meth:`InferenceState.simulate_label
<repro.core.state.InferenceState.simulate_label>` cheap enough for deep
lookahead.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Callable, Iterator, Sequence

try:  # The numpy fast path is optional; the pure-Python kernels are exact.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Whether the numpy fast path is importable at all.
HAVE_NUMPY = _np is not None

#: Codes of the ``certain`` vector (one byte per type).
UNKNOWN = 0  # consistent queries disagree -> the type is informative
CERTAIN_POSITIVE = 1
CERTAIN_NEGATIVE = 2

_CODE_OF = {None: UNKNOWN, True: CERTAIN_POSITIVE, False: CERTAIN_NEGATIVE}
_LABEL_OF = {UNKNOWN: None, CERTAIN_POSITIVE: True, CERTAIN_NEGATIVE: False}

#: The numpy kernels hold atom-set bitmasks and counts in int64 lanes, so
#: they only apply below bit 63 (subset tests stay exact in two's complement).
_INT64_LIMIT = 1 << 62

#: The lookahead kernel takes its weighted sums in float64, exact only while
#: every partial sum of the (non-negative) counts stays below 2⁵³.
_EXACT_FLOAT_LIMIT = 1 << 53

#: Cells (candidates × informative types) per row block of the row-blocked
#: lookahead kernel.  Its block buffers then take ~0.6 MB and stay
#: cache-resident; a sweep over 16K–1M cells per block was fastest at 32K.
_BLOCK_CELLS = 1 << 15

#: Lookahead calls of at least this many cells take the bit-sliced kernel.
#: Below it, building the per-call subset tables costs more than the whole
#: row-blocked call (the two cross over between 16K and 32K cells).
_BITSLICE_CELLS = 1 << 14

#: The bit-sliced kernel sums with ``numpy.bitwise_count`` (numpy ≥ 2.0);
#: older numpy keeps the row-blocked kernel for every call.
_HAVE_BITWISE_COUNT = HAVE_NUMPY and hasattr(_np, "bitwise_count")

#: uint64 words (candidates × ⌈I/64⌉) per row block of the bit-sliced
#: kernel: its three block buffers take 384 KB whatever the call's size.
#: Blocks of 2¹⁴–2¹⁶ words scored a guided-wide pass equally fast.
_BITSLICE_BLOCK_WORDS = 1 << 14

_ENV_VAR = "REPRO_KERNEL_BACKEND"
_forced_backend: str | None = None


def _validate(backend: str) -> str:
    if backend not in ("python", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}; use 'python' or 'numpy'")
    return backend


def available_backends() -> tuple[str, ...]:
    """The kernel backends usable in this interpreter."""
    return ("python", "numpy") if HAVE_NUMPY else ("python",)


def default_backend() -> str:
    """The backend new tables and batch kernels use.

    Resolution order: :func:`use_backend` override, then the
    ``REPRO_KERNEL_BACKEND`` environment variable, then numpy when available.
    A request for numpy silently degrades to python when numpy is missing, so
    the same configuration runs everywhere.
    """
    forced = _forced_backend
    if forced is None:
        env = os.environ.get(_ENV_VAR, "").strip().lower()
        forced = _validate(env) if env else None
    if forced == "numpy" and not HAVE_NUMPY:
        return "python"
    return forced if forced is not None else ("numpy" if HAVE_NUMPY else "python")


class use_backend:
    """Force the kernel backend within a ``with`` block (tests, benchmarks)."""

    def __init__(self, backend: str) -> None:
        self.backend = _validate(backend)
        self._previous: str | None = None

    def __enter__(self) -> use_backend:
        global _forced_backend
        self._previous = _forced_backend
        _forced_backend = self.backend
        return self

    def __exit__(self, *_exc: object) -> None:
        global _forced_backend
        _forced_backend = self._previous


def numpy_enabled() -> bool:
    """Whether the resolved backend is the numpy fast path."""
    return default_backend() == "numpy"


# --------------------------------------------------------------------- #
# Scalar reference semantics (shared by the pure-Python kernels)
# --------------------------------------------------------------------- #
def _certain_code(mask: int, positive_mask: int, negative_masks: Sequence[int]) -> int:
    """The certain-label code of one type under ``(M, N)``.

    Mirrors :meth:`ConsistentQuerySpace.certain_label_for
    <repro.core.space.ConsistentQuerySpace.certain_label_for>`: certain
    positive iff ``M ⊆ E(t)`` (no rejecting query), else certain negative iff
    ``M ∩ E(t)`` is contained in some negative type (no selecting query).
    """
    if positive_mask & ~mask == 0:
        return CERTAIN_POSITIVE
    restricted = positive_mask & mask
    for neg in negative_masks:
        if restricted & ~neg == 0:
            return CERTAIN_NEGATIVE
    return UNKNOWN


def _fits_int64(values: Sequence[int]) -> bool:
    if HAVE_NUMPY and isinstance(values, _np.ndarray):
        return values.dtype == _np.int64 and (
            not values.size
            or (int(values.min()) >= -_INT64_LIMIT and int(values.max()) < _INT64_LIMIT)
        )
    return not values or (min(values) >= -_INT64_LIMIT and max(values) < _INT64_LIMIT)


def _as_list(values: Sequence[int]) -> Sequence[int]:
    """The values as Python ints: numpy arrays are converted, lists pass as they are."""
    if HAVE_NUMPY and isinstance(values, _np.ndarray):
        return values.tolist()
    return values


def certain_codes(
    masks: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
    backend: str | None = None,
) -> Iterator[int]:
    """Certain-label codes for a batch of type masks, lazily.

    The python path yields one code at a time so early-exit consumers (the
    loop-guard scan) stop at the first informative type; the numpy path
    classifies the whole batch in one vector pass.
    """
    chosen = backend or default_backend()
    if (
        chosen == "numpy"
        and HAVE_NUMPY
        and _fits_int64(masks)
        and _fits_int64((positive_mask, *negative_masks))
    ):
        return iter(
            _np_certain_codes(
                _np.asarray(masks, dtype=_np.int64), positive_mask, negative_masks
            ).tolist()
        )
    return (_certain_code(mask, positive_mask, negative_masks) for mask in masks)


def _np_certain_codes(masks_arr, positive_mask: int, negative_masks: Sequence[int]):
    """Vectorized :func:`_certain_code` over an int64 mask vector."""
    m = _np.int64(positive_mask)
    positive = (m & ~masks_arr) == 0
    restricted = m & masks_arr
    negative = _np.zeros(len(masks_arr), dtype=bool)
    for neg in negative_masks:
        negative |= (restricted & ~_np.int64(neg)) == 0
    codes = _np.full(len(masks_arr), UNKNOWN, dtype=_np.int8)
    codes[negative] = CERTAIN_NEGATIVE
    codes[positive] = CERTAIN_POSITIVE  # positive takes precedence, as in the scalar path
    return codes


def prune_counts_batch(
    info_masks: Sequence[int],
    info_counts: Sequence[int],
    restricted_candidates: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
    backend: str | None = None,
    columns: bool = False,
):
    """``(resolved_if_positive, resolved_if_negative)`` per candidate type.

    ``info_masks`` / ``info_counts`` are the informative snapshot (full type
    masks and their unlabeled counts); each candidate is given by its
    *restricted* type ``E(t) ∩ M``, which fully determines its counts.  Every
    candidate is restricted with ``M`` on entry, so bits outside ``M`` never
    change a score, whichever path takes the call.  Each of the three
    sequences may be a list or an int64 numpy array (the array snapshot of a
    :class:`NumpyTypeTable` and its :class:`TypeGroups`), which the numpy
    path takes without a conversion.  The result is a list of pairs; with
    ``columns`` it is the two count columns instead, int64 arrays from the
    numpy path and lists otherwise (what :func:`score_levels` takes).

    The numpy path never holds a K×I array and tests only the negatives that
    stay maximal once restricted to ``M``.  Calls of at least
    ``_BITSLICE_CELLS`` candidates × informative types, on a numpy with
    ``bitwise_count``, take the bit-sliced kernel: per-atom bitsets over the
    I types, 8-atom subset tables and popcount sums.  Smaller calls score the
    candidates in row blocks of about ``_BLOCK_CELLS`` cells, whose float64
    sums are exact only while the counts sum below 2⁵³; past that the
    bit-sliced kernel takes every call, since its popcount sums are exact
    in int64.  Counts summing past the int64 lane, masks past it, or a numpy
    without ``bitwise_count`` on counts past 2⁵³ take the exact pure-Python
    path.
    """
    chosen = backend or default_backend()
    if (
        chosen == "numpy"
        and HAVE_NUMPY
        and len(info_masks)
        and len(restricted_candidates)
        and _fits_int64((positive_mask, *negative_masks))
        and _fits_int64(info_masks)
    ):
        if isinstance(restricted_candidates, _np.ndarray):
            candidates = restricted_candidates & positive_mask
        else:
            candidates = [candidate & positive_mask for candidate in restricted_candidates]
        kernel = _np_prune_kernel(len(candidates) * len(info_masks), _count_total(info_counts))
        if kernel is not None and _fits_int64(candidates):
            sums = kernel(info_masks, info_counts, candidates, positive_mask, negative_masks)
            return (sums[0], sums[1]) if columns else list(zip(*sums.tolist()))
    info_masks = _as_list(info_masks)
    info_counts = _as_list(info_counts)
    if_positive: list[int] = []
    if_negative: list[int] = []
    for candidate in _as_list(restricted_candidates):
        restricted_candidate = candidate & positive_mask
        resolved_if_positive = 0
        resolved_if_negative = 0
        for mask, count in zip(info_masks, info_counts, strict=True):
            # If labeled positive: M shrinks to M ∩ E(t).
            restricted = restricted_candidate & mask
            if restricted_candidate & ~mask == 0:
                resolved_if_positive += count
            else:
                for neg in negative_masks:
                    if restricted & ~neg == 0:
                        resolved_if_positive += count
                        break
            # If labeled negative: E(t) joins the negative types.
            if (positive_mask & mask) & ~restricted_candidate == 0:
                resolved_if_negative += count
        if_positive.append(resolved_if_positive)
        if_negative.append(resolved_if_negative)
    return (if_positive, if_negative) if columns else list(zip(if_positive, if_negative, strict=True))


def score_levels(
    if_positive: Sequence[int],
    if_negative: Sequence[int],
    value: Callable[[int, int], float],
) -> Iterator[list[int]]:
    """Candidate positions grouped by ``value(a, b)`` of their counts, best first.

    Takes the count columns of :func:`prune_counts_batch`.  ``value`` is a
    scalar Python call, made once per *distinct* ``(a, b)`` pair: scores stay
    exactly what the scalar function returns (a vectorized ``log2`` may
    differ from :func:`math.log2` in the last ulp, which would move ties),
    while the grouping and the level tests run on arrays.  The best level
    costs one maximum; later ones are sorted only when a caller reads on.
    """
    if HAVE_NUMPY and isinstance(if_positive, _np.ndarray) and len(if_positive):
        span = int(if_negative.max()) + 1
        if (int(if_positive.max()) + 1) * span <= _INT64_LIMIT:
            # One int64 key per pair, so sorting the keys groups equal pairs.
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
                for a, b in zip(
                    if_positive[first].tolist(), if_negative[first].tolist(), strict=True
                )
            ]
            scores = _np.asarray(values)[inverse]
            yield from _levels(values, lambda level: _np.flatnonzero(scores == level).tolist())
            return
        if_positive, if_negative = if_positive.tolist(), if_negative.tolist()
    pair_index: dict[tuple[int, int], int] = {}
    pairs = [
        pair_index.setdefault(pair, len(pair_index))
        for pair in zip(if_positive, if_negative, strict=True)
    ]
    values = [value(a, b) for a, b in pair_index]
    yield from _levels(
        values,
        lambda level: [position for position, pair in enumerate(pairs) if values[pair] == level],
    )


def _levels(values: list[float], positions_at: Callable[[float], list[int]]) -> Iterator[list[int]]:
    """``positions_at(level)`` for each distinct value, largest first."""
    if not values:
        return
    best = max(values)
    yield positions_at(best)
    for level in sorted({v for v in values if v < best}, reverse=True):
        yield positions_at(level)


def _count_total(counts: Sequence[int]) -> int:
    """The sum of the (non-negative) counts.

    A count array comes from a :class:`NumpyTypeTable`, which is only built
    when its total fits the int64 lane, so the array sum cannot wrap.
    """
    if isinstance(counts, _np.ndarray):
        return int(counts.sum())
    return sum(counts)


def _np_prune_kernel(cells: int, total: int):
    """The numpy lookahead kernel for a call of ``cells`` cells, or ``None``.

    The row-blocked kernel's float64 sums need ``total < 2⁵³``; the
    bit-sliced kernel's popcount sums only need it to fit the int64 lane.
    """
    if not _fits_int64((total,)):
        return None
    if _HAVE_BITWISE_COUNT and (cells >= _BITSLICE_CELLS or total >= _EXACT_FLOAT_LIMIT):
        return _np_bitsliced_prune_counts
    if total < _EXACT_FLOAT_LIMIT:
        return _np_prune_counts
    return None


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


def _np_prune_counts(
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


def _bit_columns(values: Sequence[int]):
    """The 64 bits of each int64 value, one ``uint8`` column per bit."""
    octets = _np.asarray(values, dtype="<i8").reshape(-1, 1).view(_np.uint8)
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


def _chunk_codes(values: Sequence[int], atoms, chunks: int):
    """Each value compacted to the atom order of ``M``: one byte per 8 atoms."""
    bits = _np.zeros((len(values), 8 * chunks), dtype=_np.uint8)
    bits[:, : len(atoms)] = _bit_columns(values)[:, atoms]
    return _np.packbits(bits, axis=1, bitorder="little")


def _bit_planes(counts: Sequence[int], words: int):
    """The counts as bit planes: a bitset over the types per bit some count sets."""
    bits = _bit_columns(counts)
    shifts = _np.flatnonzero(bits.any(axis=0))
    return _bitsets(bits[:, shifts].T, words), shifts


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


def _weighted_sums(hits, planes, shifts, scratch):
    """Per row of ``hits``, the exact sum of the counts of its set bits.

    ``planes[p]`` holds bit ``shifts[p]`` of every count, so a row's sum is
    ``Σ_p popcount(row & planes[p]) << shifts[p]``.
    """
    sums = _np.zeros(len(hits), dtype=_np.int64)
    for plane, shift in zip(planes, shifts, strict=True):
        _np.bitwise_and(hits, plane, out=scratch)
        sums += _np.bitwise_count(scratch).sum(axis=1, dtype=_np.int64) << shift
    return sums


def _np_bitsliced_prune_counts(
    info_masks: Sequence[int],
    info_counts: Sequence[int],
    candidates: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
) -> list[tuple[int, int]]:
    # Transpose the informative side once: per atom a of M, bit j of B[a]
    # is set iff type j holds a.  Each test below is an AND of B[a] or ~B[a]
    # over an atom set, read from 8-atom subset tables one chunk at a time.
    atoms = _np.flatnonzero(_bit_columns([positive_mask])[0])
    chunks = max(1, -(-len(atoms) // 8))
    words = -(-len(info_masks) // 64)
    bitsets = _bitsets(_bit_columns(info_masks)[:, atoms].T, words)
    holds, lacks = _subset_tables(bitsets, chunks)
    planes, shifts = _bit_planes(info_counts, words)
    codes = _chunk_codes(candidates, atoms, chunks).T.copy()
    members = _chunk_codes(
        [~complement for complement in _antichain_complements(positive_mask, negative_masks)],
        atoms,
        chunks,
    )
    total = len(candidates)
    rows = max(1, min(total, _BITSLICE_BLOCK_WORDS // words))
    buffers = [_np.empty((rows, words), dtype=_np.uint64) for _ in range(3)]
    sums = _np.empty((2, total), dtype=_np.int64)
    for start in range(0, total, rows):
        block = codes[:, start : start + rows]
        stop = start + block.shape[1]
        hit, test, scratch = (buffer[: block.shape[1]] for buffer in buffers)
        # Positive answer: type r is resolved iff c ⊆ r, or c ∩ r ⊆ n for
        # some negative n, that is r holds no atom of c ∖ n.
        _and_rows(holds, block, hit, scratch)
        for member in members:
            hit |= _and_rows(lacks, block & ~member[:, None], test, scratch)
        sums[0, start:stop] = _weighted_sums(hit, planes, shifts, scratch)
        # Negative answer: type r is resolved iff r ∩ M ⊆ c, that is r holds
        # no atom of M ∖ c.
        _and_rows(lacks, ~block, test, scratch)
        sums[1, start:stop] = _weighted_sums(test, planes, shifts, scratch)
    return sums


# --------------------------------------------------------------------- #
# Grouping the informative snapshot by restricted type
# --------------------------------------------------------------------- #
class TypeGroups:
    """An informative snapshot grouped by restricted type ``E(t) ∩ M``.

    ``restricted`` holds the distinct restricted types in ascending order:
    the candidate set the lookahead kernel scores, an int64 array for a
    numpy snapshot and a list otherwise.  Every lookahead quantity of a
    candidate tuple depends on its type only through this restriction, so
    groups, not tuples, are what the strategies score; :meth:`members` maps
    the winning groups back to their full types.
    """

    __slots__ = ("restricted", "_masks", "_counts", "_inverse")

    def __init__(
        self, masks: Sequence[int], counts: Sequence[int], positive_mask: int
    ) -> None:
        self._masks = masks
        self._counts = counts
        if HAVE_NUMPY and isinstance(masks, _np.ndarray):
            # The numpy table's masks fit the int64 lane, so bits of M past
            # it restrict nothing.
            under_m = masks & (positive_mask & (_INT64_LIMIT - 1))
            self.restricted, self._inverse = _np.unique(under_m, return_inverse=True)
        else:
            under_m = [mask & positive_mask for mask in masks]
            self.restricted = sorted(set(under_m))
            position = {restricted: group for group, restricted in enumerate(self.restricted)}
            self._inverse = [position[restricted] for restricted in under_m]

    def __len__(self) -> int:
        return len(self.restricted)

    def totals(self) -> list[int]:
        """The unlabeled count of each group, summed exactly."""
        if isinstance(self._inverse, list):
            totals = [0] * len(self.restricted)
            for group, count in zip(self._inverse, self._counts, strict=True):
                totals[group] += count
            return totals
        totals = _np.zeros(len(self.restricted), dtype=_np.int64)
        _np.add.at(totals, self._inverse, self._counts)
        return totals.tolist()

    def members(self, groups: Sequence[int]) -> list[int]:
        """The full type masks of the given groups, in snapshot order."""
        if isinstance(self._inverse, list):
            chosen = set(groups)
            return [
                mask for mask, group in zip(self._masks, self._inverse, strict=True)
                if group in chosen
            ]
        selected = _np.zeros(len(self.restricted), dtype=bool)
        selected[list(groups)] = True
        return self._masks[selected[self._inverse]].tolist()


# --------------------------------------------------------------------- #
# The type table
# --------------------------------------------------------------------- #
class _BaseTypeTable:
    """Shared surface of the two :class:`TypeTable` implementations.

    Rows are the distinct equality types, in interning order; ``certain`` and
    ``unlabeled`` are the mutable columns.  Mutators go through :meth:`_own`
    so that :meth:`copy` can lend the arrays out instead of duplicating them,
    and drop the informative snapshot, which is otherwise taken once between
    two mutations (:meth:`informative_arrays`).
    """

    __slots__ = ("_masks", "_index", "_owned", "_snapshot")

    def __init__(self, masks: Sequence[int]) -> None:
        self._masks: tuple[int, ...] = tuple(masks)
        self._index: dict[int, int] = {mask: i for i, mask in enumerate(self._masks)}
        self._owned = True
        self._snapshot: tuple[Sequence[int], Sequence[int]] | None = None

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def masks(self) -> tuple[int, ...]:
        """The distinct type masks, in table order."""
        return self._masks

    def certain_of(self, mask: int) -> bool | None:
        """The memoised certain label of one type (``None`` = informative)."""
        raise NotImplementedError

    def unlabeled_of(self, mask: int) -> int:
        """Number of unlabeled tuples of one type."""
        raise NotImplementedError

    def decrement_unlabeled(self, mask: int) -> None:
        """One tuple of the type was labeled."""
        raise NotImplementedError

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        """Re-derive certain labels against ``(M, N)``; report new flips.

        With ``only_unknown`` (the consistent-mode invariant) only currently
        informative rows are re-evaluated; otherwise every row is.  Returns
        the masks that went informative→certain-positive and
        informative→certain-negative, in table order.
        """
        raise NotImplementedError

    def informative_arrays(self) -> tuple[Sequence[int], Sequence[int]]:
        """The informative snapshot: masks and unlabeled counts, table order.

        A type is informative when its certain label is unknown and it still
        has unlabeled tuples.  The numpy table returns two int64 arrays, the
        pure-Python one two lists; callers must not mutate either.  The
        snapshot is taken once and reused until the next mutation.
        """
        if self._snapshot is None:
            self._snapshot = self._informative_rows()
        return self._snapshot

    def _informative_rows(self) -> tuple[Sequence[int], Sequence[int]]:
        raise NotImplementedError

    def informative_items(self) -> list[tuple[int, int]]:
        """``(mask, unlabeled_count)`` of every informative type, table order."""
        masks, counts = self.informative_arrays()
        return list(zip(_as_list(masks), _as_list(counts), strict=True))

    def informative_count(self) -> int:
        """Total unlabeled tuples across informative types."""
        return sum(self.informative_arrays()[1])

    def has_informative(self) -> bool:
        """Whether any informative tuple remains."""
        return len(self.informative_arrays()[0]) > 0

    def copy(self) -> TypeTable:
        """An O(1) copy-on-write clone sharing the column arrays."""
        raise NotImplementedError

    def prune_counts_informative(
        self,
        restricted_candidates: Sequence[int],
        positive_mask: int,
        negative_masks: Sequence[int],
        backend: str | None = None,
        columns: bool = False,
    ):
        """Score candidates against this table's own informative snapshot.

        The table-level entry point of the lookahead kernel: the snapshot is
        taken and consumed in one place, so callers stay backend-agnostic.
        ``columns`` is passed on to :func:`prune_counts_batch`.
        """
        masks, counts = self.informative_arrays()
        return prune_counts_batch(
            masks,
            counts,
            restricted_candidates,
            positive_mask,
            negative_masks,
            backend=backend,
            columns=columns,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(types={len(self._masks)}, "
            f"informative={len(self.informative_items())}, owned={self._owned})"
        )


class PyTypeTable(_BaseTypeTable):
    """Pure-Python fallback: :mod:`array` columns, scalar loops."""

    __slots__ = ("_certain", "_unlabeled")

    def __init__(self, masks: Sequence[int], sizes: Sequence[int]) -> None:
        super().__init__(masks)
        self._certain = array("b", bytes(len(self._masks)))
        self._unlabeled = list(sizes)

    def _own(self) -> None:
        self._snapshot = None
        if not self._owned:
            self._certain = array("b", self._certain)
            self._unlabeled = list(self._unlabeled)
            self._owned = True

    def certain_of(self, mask: int) -> bool | None:
        return _LABEL_OF[self._certain[self._index[mask]]]

    def unlabeled_of(self, mask: int) -> int:
        return self._unlabeled[self._index[mask]]

    def decrement_unlabeled(self, mask: int) -> None:
        self._own()
        self._unlabeled[self._index[mask]] -= 1

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        self._own()
        certain = self._certain
        flipped_positive: list[int] = []
        flipped_negative: list[int] = []
        for i, mask in enumerate(self._masks):
            old = certain[i]
            if only_unknown and old != UNKNOWN:
                continue
            new = _certain_code(mask, positive_mask, negative_masks)
            if new != old:
                certain[i] = new
                if old == UNKNOWN:
                    if new == CERTAIN_POSITIVE:
                        flipped_positive.append(mask)
                    else:
                        flipped_negative.append(mask)
        return flipped_positive, flipped_negative

    def _informative_rows(self) -> tuple[list[int], list[int]]:
        certain = self._certain
        unlabeled = self._unlabeled
        rows = [
            i for i in range(len(self._masks)) if certain[i] == UNKNOWN and unlabeled[i]
        ]
        return [self._masks[i] for i in rows], [unlabeled[i] for i in rows]

    def copy(self) -> PyTypeTable:
        clone = PyTypeTable.__new__(PyTypeTable)
        clone._masks = self._masks
        clone._index = self._index
        clone._certain = self._certain
        clone._unlabeled = self._unlabeled
        clone._snapshot = self._snapshot
        clone._owned = False
        self._owned = False
        return clone


class NumpyTypeTable(_BaseTypeTable):
    """numpy fast path: int64 mask lane, vectorized refresh and reductions."""

    __slots__ = ("_masks_arr", "_certain", "_unlabeled")

    def __init__(self, masks: Sequence[int], sizes: Sequence[int]) -> None:
        super().__init__(masks)
        self._masks_arr = _np.asarray(self._masks, dtype=_np.int64)
        self._certain = _np.zeros(len(self._masks), dtype=_np.int8)
        self._unlabeled = _np.asarray(sizes, dtype=_np.int64)

    def _own(self) -> None:
        self._snapshot = None
        if not self._owned:
            self._certain = self._certain.copy()
            self._unlabeled = self._unlabeled.copy()
            self._owned = True

    def certain_of(self, mask: int) -> bool | None:
        return _LABEL_OF[int(self._certain[self._index[mask]])]

    def unlabeled_of(self, mask: int) -> int:
        return int(self._unlabeled[self._index[mask]])

    def decrement_unlabeled(self, mask: int) -> None:
        self._own()
        self._unlabeled[self._index[mask]] -= 1

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        self._own()
        certain = self._certain
        new_codes = _np_certain_codes(self._masks_arr, positive_mask, negative_masks)
        if only_unknown:
            stale = certain == UNKNOWN
            flip_pos = stale & (new_codes == CERTAIN_POSITIVE)
            flip_neg = stale & (new_codes == CERTAIN_NEGATIVE)
            certain[stale] = new_codes[stale]
        else:
            was_unknown = certain == UNKNOWN
            flip_pos = was_unknown & (new_codes == CERTAIN_POSITIVE)
            flip_neg = was_unknown & (new_codes == CERTAIN_NEGATIVE)
            certain[:] = new_codes
        masks = self._masks
        flipped_positive = [masks[i] for i in _np.nonzero(flip_pos)[0].tolist()]
        flipped_negative = [masks[i] for i in _np.nonzero(flip_neg)[0].tolist()]
        return flipped_positive, flipped_negative

    def _informative_rows(self):
        # Boolean indexing copies, so later in-place decrements never reach
        # a snapshot a caller still holds.
        selector = (self._certain == UNKNOWN) & (self._unlabeled > 0)
        return self._masks_arr[selector], self._unlabeled[selector]

    def informative_count(self) -> int:
        return int(self.informative_arrays()[1].sum())

    def copy(self) -> NumpyTypeTable:
        clone = NumpyTypeTable.__new__(NumpyTypeTable)
        clone._masks = self._masks
        clone._index = self._index
        clone._masks_arr = self._masks_arr
        clone._certain = self._certain
        clone._unlabeled = self._unlabeled
        clone._snapshot = self._snapshot
        clone._owned = False
        self._owned = False
        return clone


TypeTable = PyTypeTable | NumpyTypeTable


def make_type_table(
    masks: Sequence[int], sizes: Sequence[int], backend: str | None = None
) -> TypeTable:
    """A fresh type table on the resolved backend (all labels UNKNOWN).

    The numpy table requires every mask to fit the int64 lane and the total
    tuple count to stay summable in int64; tables that do not fit (universes
    past 62 atoms) silently use the pure-Python implementation instead.
    """
    chosen = backend or default_backend()
    if (
        chosen == "numpy"
        and HAVE_NUMPY
        and _fits_int64(masks)
        and _fits_int64((sum(sizes),))
    ):
        return NumpyTypeTable(masks, sizes)
    return PyTypeTable(masks, sizes)
