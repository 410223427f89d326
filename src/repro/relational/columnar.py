"""Columnar and factorized building blocks of the session-setup pipeline.

Building an inference session used to be row-at-a-time: the cross product was
materialised as one Python tuple per candidate, and every per-tuple property
(the equality type in particular) was derived by scanning those tuples one by
one.  This module provides the succinct representations that replace it:

* :class:`ValueCodec` — interns attribute values into integer *equality
  codes* with Python ``==`` semantics, so that "do these two cells hold equal
  values?" becomes an integer comparison over code arrays instead of an
  object comparison per row.  Codes are only comparable within the codec that
  produced them; ``None`` (and NaN) get codes that never match anything.
* :class:`ProductFactorization` — the factorised form of an unsampled cross
  product R₁ × … × Rₖ: the base relations' rows plus mixed-radix arithmetic
  mapping a flat ``tuple_id`` to one row index per relation.  A candidate row
  is *reconstructed on demand* instead of being stored.
* :class:`FactorGrouping` / :func:`group_product` — group each base
  relation's rows by the code vector of a chosen column subset.  Properties
  that only depend on those columns (equality types, join-query selection)
  are then computed once per *cell* — a combination of groups, one per
  relation — and multiplied out by group cardinalities, never per candidate
  tuple: the factorised evaluation idea of FDB-style factorised databases.
  The cells form a dense grid with one axis per relation; the grouping maps
  tuples to cells and cells back to their ascending tuple ids, all as array
  arithmetic.
* :func:`combination_masks` / :func:`columnar_equality_masks` — the two
  evaluation kernels built on top: the grid of every cell's equality
  bitmask, one broadcast comparison per atom, for factorised tables, and
  per-atom tight loops over code arrays for flat (already materialised or
  sampled) tables.

Everything here is value-agnostic plumbing; the equality-type semantics live
in :mod:`repro.core.equality_types`, which consumes these helpers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sequence

import numpy as _np

Row = tuple

#: Equality code of ``None`` cells.  Negative codes never satisfy an equality
#: (``None`` and NaN never compare equal to anything, themselves included).
NULL_CODE = -1


class UnencodableValue(TypeError):
    """A value cannot be interned (unhashable); callers fall back to rows."""


class ValueCodec:
    """Interns values into integer equality codes (Python ``==`` semantics).

    Two values receive the same non-negative code exactly when they compare
    equal (so ``1``, ``1.0`` and ``True`` share a code, as dict interning
    follows ``hash``/``==``).  ``None`` maps to :data:`NULL_CODE` and NaN
    cells each get a fresh negative code; consumers must therefore treat any
    negative code as "never equal".  Codes are meaningless across codecs.
    """

    __slots__ = ("_codes", "_next_unmatchable")

    def __init__(self) -> None:
        self._codes: dict[object, int] = {}
        self._next_unmatchable = NULL_CODE - 1

    def code(self, value: object) -> int:
        """The equality code of one value."""
        if value is None:
            return NULL_CODE
        try:
            unmatchable = bool(value != value)  # NaN is the only standard case
        except Exception:  # exotic __eq__; treat as an ordinary value
            unmatchable = False
        if unmatchable:
            fresh = self._next_unmatchable
            self._next_unmatchable -= 1
            return fresh
        try:
            code = self._codes.get(value)
        except TypeError as exc:
            raise UnencodableValue(
                f"cannot intern unhashable value of type {type(value).__name__!r}"
            ) from exc
        if code is None:
            code = len(self._codes)
            self._codes[value] = code
        return code

    def encode(self, values: Sequence[object]) -> list[int]:
        """The equality codes of a column of values."""
        code = self.code
        return [code(value) for value in values]


def mask_lane(num_pairs: int) -> type:
    """The array lane of masks over ``num_pairs`` atoms.

    Up to 62 atoms the masks fit int64 lanes; past that they are Python
    ints in an ``object`` array, built by the same expressions.
    """
    return _np.int64 if num_pairs < 63 else object


def columnar_equality_masks(
    codes: Mapping[int, Sequence[int]],
    num_rows: int,
    pairs: Sequence[tuple[int, int]],
) -> _np.ndarray:
    """Per-row equality bitmasks, computed column-pair-wise over code arrays.

    ``codes`` maps each referenced column position to its equality-code
    array (all produced by one shared codec, e.g. via
    ``CandidateTable.equality_codes``).  Bit ``i`` of row ``r``'s mask is set
    when the two columns of ``pairs[i]`` hold equal non-null values on ``r``
    — one tight integer loop per pair, the columnar replacement of the
    per-row, per-atom object comparisons.
    """
    arrays = {
        column: _np.asarray(column_codes, dtype=_np.int64)
        for column, column_codes in codes.items()
    }
    masks_arr = _np.zeros(num_rows, dtype=mask_lane(len(pairs)))
    bit = 1
    for left, right in pairs:
        left_codes = arrays[left]
        right_codes = arrays[right]
        masks_arr[(left_codes >= 0) & (left_codes == right_codes)] |= bit
        bit <<= 1
    return masks_arr


class ProductFactorization:
    """The factorised form of an unsampled cross product R₁ × … × Rₖ.

    Holds the base relations' rows only; the flat candidate table is defined
    implicitly, with ``tuple_id`` ↔ per-relation row indices related by
    mixed-radix arithmetic (relation ``i`` has stride ``Π_{j>i} |Rⱼ|``, the
    ``itertools.product`` row order of the eager implementation).
    """

    __slots__ = (
        "factor_rows",
        "widths",
        "sizes",
        "offsets",
        "strides",
        "num_rows",
        "_column_locator",
    )

    def __init__(
        self,
        factor_rows: Sequence[Sequence[Row]],
        widths: Sequence[int],
    ) -> None:
        self.factor_rows: tuple[tuple[Row, ...], ...] = tuple(
            tuple(rows) for rows in factor_rows
        )
        self.widths = tuple(widths)
        self.sizes = tuple(len(rows) for rows in self.factor_rows)
        offsets: list[int] = []
        total = 0
        for width in self.widths:
            offsets.append(total)
            total += width
        self.offsets = tuple(offsets)
        strides = [1] * len(self.sizes)
        for index in range(len(self.sizes) - 2, -1, -1):
            strides[index] = strides[index + 1] * self.sizes[index + 1]
        self.strides = tuple(strides)
        num_rows = 1
        for size in self.sizes:
            num_rows *= size
        self.num_rows = num_rows
        locator: list[tuple[int, int]] = []
        for factor, width in enumerate(self.widths):
            locator.extend((factor, local) for local in range(width))
        self._column_locator = tuple(locator)

    @property
    def num_factors(self) -> int:
        """Number of base relations in the product."""
        return len(self.factor_rows)

    def locate(self, column: int) -> tuple[int, int]:
        """``(factor, local column)`` of a flat column position."""
        return self._column_locator[column]

    def digits(self, tuple_id: int) -> tuple[int, ...]:
        """Mixed-radix decoding: one base-relation row index per factor."""
        digits: list[int] = []
        remainder = tuple_id
        for stride in self.strides:
            digit, remainder = divmod(remainder, stride)
            digits.append(digit)
        return tuple(digits)

    def row(self, tuple_id: int) -> Row:
        """Reconstruct one candidate row on demand (no materialisation)."""
        parts: list[Row] = []
        remainder = tuple_id
        for rows, stride in zip(self.factor_rows, self.strides, strict=True):
            digit, remainder = divmod(remainder, stride)
            parts.append(rows[digit])
        return tuple(itertools.chain.from_iterable(parts))

    def iter_rows(self) -> Iterator[Row]:
        """All candidate rows in ``tuple_id`` order, streamed."""
        for combo in itertools.product(*self.factor_rows):
            yield tuple(itertools.chain.from_iterable(combo))

    def column_values(self, column: int) -> list[object]:
        """One flat column of the product, built by tile/repeat (no rows)."""
        factor, local = self.locate(column)
        base = [row[local] for row in self.factor_rows[factor]]
        repeat = self.strides[factor]
        size = self.sizes[factor]
        tiles = self.num_rows // (repeat * size) if size else 0
        values: list[object] = []
        for _ in range(tiles):
            for value in base:
                values.extend(itertools.repeat(value, repeat))
        return values


class FactorGrouping:
    """Per-factor grouping of base rows by the codes of selected columns.

    Groups are numbered by first appearance, per factor.  ``profiles[f]`` is
    factor ``f``'s ``(#groups, #slots)`` array of group code vectors and
    ``row_gids[f]`` maps each base row to its group; ``slot_of`` locates a
    flat column inside the profiles: ``slot_of[column] = (factor, slot)``.
    Codes were produced by one shared codec, so they compare across factors.

    A *cell* is one combination of groups, one per factor, numbered by its
    C-order position in the grid of shape :attr:`shape`.  Because groups are
    numbered by first appearance, each cell's first tuple is the
    first-member combination, and cells in C order have ascending first
    tuples.
    """

    __slots__ = (
        "factorization",
        "profiles",
        "row_gids",
        "slot_of",
        "shape",
        "_counts",
        "_starts",
        "_grouped_rows",
    )

    def __init__(
        self,
        factorization: ProductFactorization,
        profiles: list[_np.ndarray],
        row_gids: list[_np.ndarray],
        slot_of: dict[int, tuple[int, int]],
    ) -> None:
        self.factorization = factorization
        self.profiles = profiles
        self.row_gids = row_gids
        self.slot_of = slot_of
        self.shape = tuple(len(profile) for profile in profiles)
        self._counts = [
            _np.bincount(gids, minlength=groups)
            for gids, groups in zip(row_gids, self.shape, strict=True)
        ]
        self._starts = [_np.cumsum(counts) - counts for counts in self._counts]
        # Each factor's rows ordered by group, ascending within a group.
        self._grouped_rows = [_np.argsort(gids, kind="stable") for gids in row_gids]

    def group_counts(self) -> list[list[int]]:
        """Group cardinalities, per factor."""
        return [counts.tolist() for counts in self._counts]

    @property
    def _id_lane(self) -> type:
        """int64 while every tuple id fits below 2⁶², Python ints past it."""
        return _np.int64 if self.factorization.num_rows < (1 << 62) else object

    def cell_of(self, tuple_id: int) -> int:
        """The cell (group combination) a candidate tuple belongs to."""
        cell = 0
        for gids, groups, digit in zip(
            self.row_gids, self.shape, self.factorization.digits(tuple_id), strict=True
        ):
            cell = cell * groups + int(gids[digit])
        return cell

    def cell_weights(self) -> _np.ndarray:
        """How many candidate tuples each cell holds, in cell order."""
        weights = _np.ones(1, dtype=self._id_lane)
        for counts in self._counts:
            weights = _np.multiply.outer(weights, counts.astype(self._id_lane)).reshape(-1)
        return weights

    def iter_row_cells(self) -> Iterator[_np.ndarray]:
        """The cell of every candidate tuple in ``tuple_id`` order, in blocks.

        One block per base row of the leading factor, so nothing of size
        #tuples is built.
        """
        rest = _np.zeros(1, dtype=_np.intp)
        for gids, groups in zip(self.row_gids[1:], self.shape[1:], strict=True):
            rest = (rest[:, None] * groups + gids[None, :]).reshape(-1)
        span = math.prod(self.shape[1:])
        for gid in self.row_gids[0].tolist():
            yield gid * span + rest

    def first_ids(self, cells: _np.ndarray) -> _np.ndarray:
        """The smallest candidate id of each given cell: its first members."""
        ids = _np.zeros(len(cells), dtype=self._id_lane)
        gids = _np.unravel_index(cells, self.shape)
        for grouped, starts, factor_gids, stride in zip(
            self._grouped_rows, self._starts, gids, self.factorization.strides, strict=True
        ):
            ids += grouped[starts[factor_gids]].astype(self._id_lane) * stride
        return ids

    def ids_of_cells(self, cells: _np.ndarray) -> _np.ndarray:
        """The candidate ids of the given cells, as one ascending vector.

        Mixed-radix expansion, one factor at a time: every partial id is
        repeated once per member of its cell's group in the next factor and
        offset by ``member * stride``.  The members of a group are a
        contiguous run of the grouped rows, found by a segmented arange.
        """
        lane = self._id_lane
        gids = _np.unravel_index(cells, self.shape)
        owner = _np.arange(len(cells))
        ids = _np.zeros(len(cells), dtype=lane)
        for grouped, counts, starts, factor_gids, stride in zip(
            self._grouped_rows,
            self._counts,
            self._starts,
            gids,
            self.factorization.strides,
            strict=True,
        ):
            group = factor_gids[owner]
            repeats = counts[group]
            # Where each run starts among the grouped rows, less where it
            # starts in the output.
            shifts = starts[group] - _np.cumsum(repeats) + repeats
            owner = _np.repeat(owner, repeats)
            positions = _np.arange(len(owner)) + _np.repeat(shifts, repeats)
            ids = _np.repeat(ids, repeats) + grouped[positions].astype(lane) * stride
        ids.sort()
        return ids


def first_appearance_unique(
    values: _np.ndarray, axis: int | None = None
) -> tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
    """``np.unique`` with the distinct values numbered by first appearance.

    Returns ``(distinct, codes, first)``: ``distinct[codes]`` rebuilds
    ``values`` (along ``axis``), and ``first[i]`` is the position where
    ``distinct[i]`` first occurs, so ``first`` is ascending.
    """
    distinct, first, inverse = _np.unique(
        values, return_index=True, return_inverse=True, axis=axis
    )
    order = _np.argsort(first)
    rank = _np.empty_like(order)
    rank[order] = _np.arange(len(order))
    return distinct[order], rank[inverse.reshape(-1)], first[order]


def group_product(
    factorization: ProductFactorization, columns: Sequence[int]
) -> FactorGrouping:
    """Group every factor's rows by the code vectors of the given flat columns.

    The factorised analogue of "project each relation on the columns any atom
    touches and deduplicate": one pass per base relation, O(Σ|Rᵢ|), after
    which per-candidate properties of those columns collapse to per-group-
    combination properties.  A factor no column touches is one group.

    Raises :class:`UnencodableValue` when a cell cannot be interned.
    """
    codec = ValueCodec()
    per_factor: list[list[int]] = [[] for _ in range(factorization.num_factors)]
    for column in columns:
        factor, local = factorization.locate(column)
        per_factor[factor].append(local)
    slot_of: dict[int, tuple[int, int]] = {}
    for column in columns:
        factor, local = factorization.locate(column)
        slot_of[column] = (factor, per_factor[factor].index(local))
    profiles: list[_np.ndarray] = []
    row_gids: list[_np.ndarray] = []
    for factor, locals_used in enumerate(per_factor):
        rows = factorization.factor_rows[factor]
        keys = _np.zeros((len(rows), len(locals_used)), dtype=_np.int64)
        for slot, local in enumerate(locals_used):
            keys[:, slot] = codec.encode([row[local] for row in rows])
        profile, gids, _ = first_appearance_unique(keys, axis=0)
        profiles.append(profile)
        row_gids.append(gids)
    return FactorGrouping(factorization, profiles, row_gids, slot_of)


def combination_masks(
    grouping: FactorGrouping, pairs: Sequence[tuple[int, int]]
) -> _np.ndarray:
    """The equality mask of every cell, as a dense grid of shape ``grouping.shape``.

    Bit ``i`` of a cell is set when the columns of ``pairs[i]`` hold equal
    non-null values on every candidate tuple of the cell.  Each pair is one
    broadcast comparison of two profile code columns, each laid along its
    factor's axis, OR-ed into the grid in place: the only temporary is one
    boolean slab per pair, and the work is independent of the number of
    candidate tuples.  Masks use the lanes of :func:`columnar_equality_masks`.
    """
    shape = grouping.shape

    def along_axis(column: int) -> _np.ndarray:
        factor, slot = grouping.slot_of[column]
        axes = [1] * len(shape)
        axes[factor] = shape[factor]
        return grouping.profiles[factor][:, slot].reshape(axes)

    grid = _np.zeros(shape, dtype=mask_lane(len(pairs)))
    bit = 1
    for left, right in pairs:
        left_codes = along_axis(left)
        equal = left_codes == along_axis(right)
        equal &= left_codes >= 0
        _np.bitwise_or(grid, bit, out=grid, where=equal)
        bit <<= 1
    return grid
