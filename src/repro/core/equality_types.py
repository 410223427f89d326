"""Equality types of candidate tuples.

The *equality type* ``E(t)`` of a tuple is the set of atoms of the universe
that hold on it; a join query θ selects ``t`` exactly when ``θ ⊆ E(t)``.  The
:class:`EqualityTypeIndex` derives ``E(t)`` for every tuple of a candidate
table (as bitmasks) and groups tuples by their type — two tuples with the
same type are indistinguishable to every join query, which both the pruning
logic and the lookahead strategies exploit.

**Columnar / factorized construction.**  The index is no longer built by
evaluating every atom on every row:

* Flat tables (given rows, or sampled cross products) intern each referenced
  column into an integer code array once and compute each atom with one
  tight column-pair loop (:func:`~repro.relational.columnar.columnar_equality_masks`).
* Unsampled cross products are never enumerated at all.  Each base relation
  is grouped by the code vector of the columns any atom touches
  (:func:`~repro.relational.columnar.group_product`), and the distinct-type
  histogram is built *factorized*: one equality evaluation per combination
  of groups, weighted by the product of the group cardinalities — O(Σ|Rᵢ| +
  #combinations × #atoms) instead of O(Π|Rᵢ| × #atoms).  Per-tuple masks and
  per-type tuple-id lists are derived lazily, on demand, from the grouping.

The type-level API (:attr:`distinct_masks`, :meth:`type_sizes`,
:meth:`tuples_with_mask`, :meth:`count_selected_by`) is therefore the cheap
surface; downstream code should prefer it over sweeping per-tuple masks.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from types import MappingProxyType

import numpy as _np

from ..relational.columnar import (
    FactorGrouping,
    UnencodableValue,
    columnar_equality_masks,
    combo_equalities,
)
from .atoms import AtomUniverse, popcount


class _FactorizedTypes:
    """The lazy per-tuple machinery of a factorized equality-type index.

    ``combo_masks`` maps a group combination to its equality mask, and
    ``combos_by_mask`` lists each mask's combinations in product order.
    """

    __slots__ = ("grouping", "combo_masks", "combos_by_mask")

    def __init__(
        self,
        grouping: FactorGrouping,
        combo_masks: dict[tuple[int, ...], int],
        combos_by_mask: dict[int, list[tuple[int, ...]]],
    ) -> None:
        self.grouping = grouping
        self.combo_masks = combo_masks
        self.combos_by_mask = combos_by_mask

    def mask_of(self, tuple_id: int) -> int:
        """E(t) of one tuple: locate its group combination, look the mask up."""
        return self.combo_masks[self.grouping.combo_of(tuple_id)]

    def iter_all_masks(self) -> Iterator[int]:
        """E(t) for every tuple, in ``tuple_id`` order, streamed."""
        combo_masks = self.combo_masks
        for combo in itertools.product(*self.grouping.row_gids):
            yield combo_masks[combo]

    def all_masks(self) -> tuple[int, ...]:
        """E(t) for every tuple, in ``tuple_id`` order (full materialisation)."""
        return tuple(self.iter_all_masks())

    #: Above this many combinations per type, per-combination numpy dispatch
    #: costs more than the ids it produces (large grids put most types on
    #: ~one candidate per combination); the bulk mixed-radix loop wins.
    _MANY_COMBOS = 4096

    def ids_of_mask(self, mask: int) -> tuple[int, ...]:
        """All tuple ids of one equality type, ascending."""
        combos = self.combos_by_mask.get(mask, ())
        if not combos:
            return ()
        grouping = self.grouping
        if len(combos) <= self._MANY_COMBOS:
            arrays = [grouping.combo_id_array(combo) for combo in combos]
            if len(arrays) == 1:
                merged = arrays[0]  # each combination's ids are already ascending
            else:
                merged = _np.sort(_np.concatenate(arrays))
            return tuple(merged.tolist())
        return tuple(grouping.ids_of_combos(combos))

    def min_id_of_mask(self, mask: int) -> int | None:
        """The smallest tuple id of one equality type, without materialising.

        Each combination's smallest id uses the first (smallest) member of
        every factor group; the type's minimum is the smallest across its
        combinations — O(#combinations × #factors) instead of O(type size).
        """
        combos = self.combos_by_mask.get(mask)
        if not combos:
            return None
        return self.grouping.min_id_of_combos(combos)


class EqualityTypeIndex:
    """Per-tuple equality types (bitmasks) for one candidate table + universe.

    ``E(t)`` depends on the instance alone, never on labels, so one index
    serves every session over the same table and atom set:
    :meth:`shared` returns that per-table index, while the constructor
    always builds a new one.  After construction the index is read-only
    apart from two lazy memos (the per-type id lists behind
    :meth:`tuples_with_mask` and the per-tuple :attr:`masks`), whose fills
    are idempotent — threads racing on one may compute it twice and keep
    either result — so a shared index needs no lock.  Those memos live as
    long as the index; they are bounded by the table size.
    """

    @classmethod
    def shared(cls, universe: AtomUniverse) -> EqualityTypeIndex:
        """The index of ``universe``'s table and atom set, built once per table.

        Memoised on the table (see
        :meth:`~repro.relational.candidate.CandidateTable.derived`) under
        ``universe.atoms``, so every universe with the same atoms gets the
        same index, whose :attr:`universe` is the first of them.  The memo
        dies with the table.
        """
        return universe.table.derived((cls, universe.atoms), lambda: cls(universe))

    def __init__(self, universe: AtomUniverse) -> None:
        self.universe = universe
        self.table = universe.table
        pairs = universe.attribute_positions
        self._masks: tuple[int, ...] | None = None
        self._ids_by_mask: dict[int, tuple[int, ...]] = {}
        self._factorized: _FactorizedTypes | None = None
        factorization = self.table.factorization()
        try:
            if factorization is not None:
                self._build_factorized(factorization, pairs)
            else:
                self._build_columnar(pairs)
        except UnencodableValue:
            # Unhashable cells cannot be interned; fall back to evaluating
            # every atom on every (possibly reconstructed) row.
            self._build_rowwise()
        self._distinct: tuple[int, ...] = tuple(self._type_sizes)
        self._sizes_view: Mapping[int, int] = MappingProxyType(self._type_sizes)

    # ------------------------------------------------------------------ #
    # Construction paths
    # ------------------------------------------------------------------ #
    def _build_factorized(self, factorization, pairs) -> None:
        """Factorized histogram: one evaluation per group combination."""
        used_columns = sorted({position for pair in pairs for position in pair})
        grouping = self.table.factor_grouping(used_columns)
        combo_masks: dict[tuple[int, ...], int] = {}
        combos_by_mask: dict[int, list[tuple[int, ...]]] = {}
        sizes = {}
        for combo, mask, count in combo_equalities(grouping, pairs):
            combo_masks[combo] = mask
            sizes[mask] = sizes.get(mask, 0) + count
            combos_by_mask.setdefault(mask, []).append(combo)
        self._factorized = _FactorizedTypes(grouping, combo_masks, combos_by_mask)
        self._type_sizes = sizes

    def _build_columnar(self, pairs) -> None:
        """Flat tables: per-atom tight loops over interned code arrays."""
        used_columns = sorted({position for pair in pairs for position in pair})
        codes = dict(zip(used_columns, self.table.equality_codes(used_columns), strict=True))
        self._finish_flat(columnar_equality_masks(codes, len(self.table), pairs))

    def _build_rowwise(self) -> None:
        """Last-resort seed behaviour: one ``equality_mask`` call per row."""
        universe = self.universe
        self._finish_flat([universe.equality_mask(row) for row in self.table])

    def _finish_flat(self, masks: list[int]) -> None:
        self._masks = tuple(masks)
        grouped: dict[int, list[int]] = {}
        for tuple_id, mask in enumerate(masks):
            grouped.setdefault(mask, []).append(tuple_id)
        self._ids_by_mask = {mask: tuple(ids) for mask, ids in grouped.items()}
        self._type_sizes = {mask: len(ids) for mask, ids in self._ids_by_mask.items()}

    # ------------------------------------------------------------------ #
    # Per-tuple access
    # ------------------------------------------------------------------ #
    def mask(self, tuple_id: int) -> int:
        """The equality type E(t) of a tuple, as a bitmask."""
        if self._masks is not None:
            return self._masks[tuple_id]
        if not 0 <= tuple_id < len(self.table):
            raise IndexError(f"tuple id {tuple_id} out of range")
        assert self._factorized is not None
        return self._factorized.mask_of(tuple_id)

    @property
    def masks(self) -> tuple[int, ...]:
        """E(t) for every tuple, indexed by tuple id (materialised lazily).

        This caches an O(#tuples) tuple on the index for the rest of its
        lifetime; full sweeps that only need the masks once should prefer
        :meth:`iter_masks`.
        """
        if self._masks is None:
            assert self._factorized is not None
            self._masks = self._factorized.all_masks()
        return self._masks

    def iter_masks(self) -> Iterator[int]:
        """E(t) for every tuple in ``tuple_id`` order, streamed.

        Unlike :attr:`masks` this never materialises (nor caches) the full
        per-tuple tuple on a factorized index.
        """
        if self._masks is not None:
            return iter(self._masks)
        assert self._factorized is not None
        return self._factorized.iter_all_masks()

    def atom_count(self, tuple_id: int) -> int:
        """Number of atoms that hold on the tuple."""
        return popcount(self.mask(tuple_id))

    # ------------------------------------------------------------------ #
    # Type-level access
    # ------------------------------------------------------------------ #
    @property
    def distinct_masks(self) -> tuple[int, ...]:
        """The distinct equality types occurring in the table (cached)."""
        return self._distinct

    def tuples_with_mask(self, mask: int) -> tuple[int, ...]:
        """Tuple ids whose equality type is exactly ``mask`` (ascending)."""
        ids = self._ids_by_mask.get(mask)
        if ids is None:
            if self._factorized is None:
                return ()
            ids = self._factorized.ids_of_mask(mask)
            self._ids_by_mask[mask] = ids
        return ids

    def min_tuple_id(self, mask: int) -> int | None:
        """The smallest tuple id of one equality type, or ``None``.

        On factorized tables this avoids materialising (and caching) the
        type's full id list — the strategies' representative-picking helper
        only needs the minimum.
        """
        ids = self._ids_by_mask.get(mask)
        if ids is not None:
            return ids[0] if ids else None
        if self._factorized is None:
            return None
        return self._factorized.min_id_of_mask(mask)

    def type_sizes(self) -> Mapping[int, int]:
        """How many tuples share each distinct equality type (cached view)."""
        return self._sizes_view

    def selected_by(self, query_mask: int) -> frozenset[int]:
        """Tuple ids selected by the query encoded by ``query_mask``.

        A query selects a tuple iff its atom set is a subset of the tuple's
        equality type.
        """
        selected: list[int] = []
        for mask in self._distinct:
            if query_mask & ~mask == 0:
                selected.extend(self.tuples_with_mask(mask))
        return frozenset(selected)

    def count_selected_by(self, query_mask: int) -> int:
        """Number of tuples selected by ``query_mask`` (type-level, no ids)."""
        return sum(
            count for mask, count in self._type_sizes.items() if query_mask & ~mask == 0
        )

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[int]:
        return self.iter_masks()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EqualityTypeIndex(tuples={len(self.table)}, "
            f"distinct_types={len(self._type_sizes)}, atoms={self.universe.size})"
        )
