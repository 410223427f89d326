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
  are then computed once per *combination of groups* and multiplied out by
  group cardinalities, never per candidate tuple — the factorised evaluation
  idea of FDB-style factorised databases.
* :func:`combo_equalities` / :func:`columnar_equality_masks` — the two
  evaluation kernels built on top: per-group-combination equality bitmasks
  for factorised tables, and per-atom tight loops over code arrays for flat
  (already materialised or sampled) tables.

Everything here is value-agnostic plumbing; the equality-type semantics live
in :mod:`repro.core.equality_types`, which consumes these helpers.
"""

from __future__ import annotations

import itertools
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


def columnar_equality_masks(
    codes: Mapping[int, Sequence[int]],
    num_rows: int,
    pairs: Sequence[tuple[int, int]],
) -> list[int]:
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
    # Up to 62 pairs the masks fit int64 lanes; past that they are Python
    # ints in an object array, built by the same expressions.
    masks_arr = _np.zeros(num_rows, dtype=_np.int64 if len(pairs) < 63 else object)
    bit = 1
    for left, right in pairs:
        left_codes = arrays[left]
        right_codes = arrays[right]
        masks_arr[(left_codes >= 0) & (left_codes == right_codes)] |= bit
        bit <<= 1
    return masks_arr.tolist()


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

    ``profiles[f][g]`` is the code vector shared by group ``g`` of factor
    ``f``; ``members[f][g]`` lists its base-row indices (ascending) and
    ``row_gids[f][r]`` maps base row ``r`` to its group.  ``slot_of`` locates
    a flat column inside the profiles: ``slot_of[column] = (factor, slot)``.
    Codes were produced by one shared codec, so they compare across factors.
    """

    __slots__ = (
        "factorization",
        "profiles",
        "members",
        "row_gids",
        "slot_of",
        "_member_arrays",
    )

    def __init__(
        self,
        factorization: ProductFactorization,
        profiles: list[list[tuple[int, ...]]],
        members: list[list[list[int]]],
        row_gids: list[list[int]],
        slot_of: dict[int, tuple[int, int]],
    ) -> None:
        self.factorization = factorization
        self.profiles = profiles
        self.members = members
        self.row_gids = row_gids
        self.slot_of = slot_of
        self._member_arrays: dict[tuple[int, int], "_np.ndarray"] | None = None

    def group_counts(self) -> list[list[int]]:
        """Group cardinalities, per factor."""
        return [[len(member) for member in factor] for factor in self.members]

    def combo_of(self, tuple_id: int) -> tuple[int, ...]:
        """The group combination a candidate tuple belongs to."""
        digits = self.factorization.digits(tuple_id)
        return tuple(
            self.row_gids[factor][digit] for factor, digit in enumerate(digits)
        )

    def ids_of_combo(self, combo: Sequence[int]) -> list[int]:
        """The candidate tuple ids of one group combination (ascending)."""
        return self.combo_id_array(combo).tolist()

    def ids_of_combos(self, combos: Sequence[Sequence[int]]) -> list[int]:
        """The candidate ids of many combinations, merged ascending.

        The bulk form of :meth:`ids_of_combo` for types that span very many
        combinations (large grids put most types on ~one candidate per
        combination, where per-combination dispatch — numpy array setup in
        particular — dominates the actual id arithmetic): one tight
        mixed-radix loop over the member lists, then one sort.
        """
        members = self.members
        strides = self.factorization.strides
        ids: list[int] = []
        append = ids.append
        for combo in combos:
            member_lists = [members[factor][gid] for factor, gid in enumerate(combo)]
            for digits in itertools.product(*member_lists):
                tuple_id = 0
                for digit, stride in zip(digits, strides, strict=True):
                    tuple_id += digit * stride
                append(tuple_id)
        ids.sort()
        return ids

    def min_id_of_combos(self, combos: Sequence[Sequence[int]]) -> int | None:
        """The smallest candidate id across many combinations.

        Each combination's smallest id uses the first (= smallest) member of
        every factor group, so the scan is O(#combinations × #factors) with
        nothing materialised.
        """
        first_members = [[group[0] for group in factor] for factor in self.members]
        strides = self.factorization.strides
        best: int | None = None
        for combo in combos:
            tuple_id = 0
            for factor, gid in enumerate(combo):
                tuple_id += first_members[factor][gid] * strides[factor]
            if best is None or tuple_id < best:
                best = tuple_id
        return best

    def _member_array(self, factor: int, gid: int) -> _np.ndarray:
        """One group's base-row indices as a cached vector.

        int64 while every tuple id fits below 2⁶², Python ints (``object``)
        past it, so the id arithmetic of :meth:`combo_id_array` is exact.
        """
        if self._member_arrays is None:
            self._member_arrays = {}
        key = (factor, gid)
        cached = self._member_arrays.get(key)
        if cached is None:
            lane = _np.int64 if self.factorization.num_rows < (1 << 62) else object
            cached = _np.asarray(self.members[factor][gid], dtype=lane)
            self._member_arrays[key] = cached
        return cached

    def combo_id_array(self, combo: Sequence[int]) -> _np.ndarray:
        """The candidate tuple ids of one combination, as an ascending vector.

        Mixed-radix broadcast: each factor contributes ``member * stride``
        terms, and because every partial sum is strictly below the preceding
        factor's stride, lexicographic combination order coincides with
        numeric tuple-id order — the sums come out ascending without a sort.
        """
        strides = self.factorization.strides
        ids: _np.ndarray | None = None
        for factor, gid in enumerate(combo):
            term = self._member_array(factor, gid) * strides[factor]
            ids = term if ids is None else (ids[:, None] + term[None, :]).reshape(-1)
        assert ids is not None  # products have at least one factor
        return ids


def group_product(
    factorization: ProductFactorization, columns: Sequence[int]
) -> FactorGrouping:
    """Group every factor's rows by the code vectors of the given flat columns.

    The factorised analogue of "project each relation on the columns any atom
    touches and deduplicate": one pass per base relation, O(Σ|Rᵢ|), after
    which per-candidate properties of those columns collapse to per-group-
    combination properties.

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
    profiles: list[list[tuple[int, ...]]] = []
    members: list[list[list[int]]] = []
    row_gids: list[list[int]] = []
    for factor, locals_used in enumerate(per_factor):
        rows = factorization.factor_rows[factor]
        if locals_used:
            code_columns = [
                codec.encode([row[local] for row in rows]) for local in locals_used
            ]
            keys: Sequence[tuple[int, ...]] = list(zip(*code_columns, strict=True))
        else:
            # No atom touches this factor: all its rows are interchangeable.
            keys = [()] * len(rows)
        gid_of: dict[tuple[int, ...], int] = {}
        factor_profiles: list[tuple[int, ...]] = []
        factor_members: list[list[int]] = []
        factor_gids: list[int] = []
        for row_index, key in enumerate(keys):
            gid = gid_of.get(key)
            if gid is None:
                gid = len(factor_profiles)
                gid_of[key] = gid
                factor_profiles.append(key)
                factor_members.append([])
            factor_members[gid].append(row_index)
            factor_gids.append(gid)
        profiles.append(factor_profiles)
        members.append(factor_members)
        row_gids.append(factor_gids)
    return FactorGrouping(factorization, profiles, members, row_gids, slot_of)


def combo_equalities(
    grouping: FactorGrouping, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield ``(combo, mask, count)`` for every combination of factor groups.

    ``mask`` has bit ``i`` set when the columns of ``pairs[i]`` hold equal
    non-null values on every candidate tuple of the combination, and
    ``count`` is the number of such tuples (the product of the group
    cardinalities).  Total work is O(#combinations × #pairs) — independent of
    the number of candidate tuples.
    """
    slot_of = grouping.slot_of
    pair_slots = [(slot_of[left], slot_of[right]) for left, right in pairs]
    profiles = grouping.profiles
    counts = grouping.group_counts()
    for combo in itertools.product(*(range(len(factor)) for factor in profiles)):
        mask = 0
        bit = 1
        for (left_factor, left_slot), (right_factor, right_slot) in pair_slots:
            code = profiles[left_factor][combo[left_factor]][left_slot]
            if code >= 0 and code == profiles[right_factor][combo[right_factor]][right_slot]:
                mask |= bit
            bit <<= 1
        count = 1
        for factor, gid in enumerate(combo):
            count *= counts[factor][gid]
        yield combo, mask, count
