"""Equality types of candidate tuples.

The *equality type* ``E(t)`` of a tuple is the set of atoms of the universe
that hold on it; a join query θ selects ``t`` exactly when ``θ ⊆ E(t)``.  The
:class:`EqualityTypeIndex` derives ``E(t)`` for every tuple of a candidate
table (as bitmasks) and groups tuples by their type — two tuples with the
same type are indistinguishable to every join query, which both the pruning
logic and the lookahead strategies exploit.

**One type table over cells.**  The index never evaluates atoms per
candidate of a cross product.  It assigns every *cell* an equality mask and
keeps one small-int type code per cell:

* a cell is a row of a flat table (given rows, or a sampled cross product),
  whose masks come from one tight loop per atom over interned code arrays
  (:func:`~repro.relational.columnar.columnar_equality_masks`), or from the
  row-at-a-time fallback when cells are unhashable;
* a cell is a group combination of an unsampled cross product: each base
  relation is grouped by the codes of the columns any atom touches
  (:func:`~repro.relational.columnar.group_product`) and the masks of all
  combinations come from one broadcast comparison per atom
  (:func:`~repro.relational.columnar.combination_masks`) — O(Σ|Rᵢ| +
  #combinations × #atoms) instead of O(Π|Rᵢ| × #atoms).

The type table is one ``np.unique`` over the cell masks, with the types
numbered by first appearance (so by smallest tuple id), plus per-type arrays
of mask, size (cell weights summed with ``np.add.at``) and smallest tuple id.
The mask and size arrays are public and read-only (:attr:`mask_array`,
:attr:`size_array`, with the mask→code map :attr:`code_of`): every
session's :class:`~repro.core.kernels.TypeTable` runs on them directly.
Per-tuple masks and per-type id lists are derived lazily from the cells.

The type-level API (:attr:`distinct_masks`, :meth:`type_sizes`,
:meth:`min_tuple_id`, :meth:`tuples_with_mask`, :meth:`count_selected_by`)
is therefore the cheap surface; downstream code should prefer it over
sweeping per-tuple masks.  Every value it returns is a Python ``int``.
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
    combination_masks,
    first_appearance_unique,
    mask_lane,
)
from .atoms import AtomUniverse, popcount


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
        self._masks: tuple[int, ...] | None = None
        self._ids_by_mask: dict[int, tuple[int, ...]] = {}
        #: The factor grouping whose group combinations are the cells, or
        #: ``None`` when the cells are the table's rows.
        self._grouping: FactorGrouping | None = None
        try:
            self._grouping, cell_masks, weights = self._cells(universe.attribute_positions)
        except UnencodableValue:
            # Unhashable cells cannot be interned; fall back to evaluating
            # every atom on every (possibly reconstructed) row.
            cell_masks = _np.asarray(
                [universe.equality_mask(row) for row in self.table],
                dtype=mask_lane(universe.size),
            )
            weights = 1
        type_masks, self._codes, first_cells = first_appearance_unique(cell_masks)
        sizes = _np.zeros(len(type_masks), dtype=_np.asarray(weights).dtype)
        _np.add.at(sizes, self._codes, weights)
        # Cells in order have ascending first tuples, so a type's smallest
        # tuple id is the first tuple of its first cell.
        if self._grouping is not None:
            first_cells = self._grouping.first_ids(first_cells)
        type_masks.flags.writeable = False
        sizes.flags.writeable = False
        #: The per-type arrays, read-only and indexed by type code: every
        #: type's mask (int64 up to 62 atoms, ``object`` past) and size
        #: (int64 below 2⁶² tuples, ``object`` past).  Sessions build their
        #: type tables over them without a copy.
        self.mask_array = type_masks
        self.size_array = sizes
        self._distinct: tuple[int, ...] = tuple(type_masks.tolist())
        #: The type code (row of the per-type arrays) of every distinct mask.
        self.code_of: Mapping[int, int] = MappingProxyType(
            {mask: code for code, mask in enumerate(self._distinct)}
        )
        self._min_ids: tuple[int, ...] = tuple(first_cells.tolist())
        self._sizes_view: Mapping[int, int] = MappingProxyType(
            dict(zip(self._distinct, sizes.tolist(), strict=True))
        )

    def _cells(self, pairs) -> tuple[FactorGrouping | None, _np.ndarray, _np.ndarray | int]:
        """The cells' grouping, every cell's equality mask, and its tuple count."""
        used_columns = sorted({position for pair in pairs for position in pair})
        if self.table.factorization() is not None:
            grouping = self.table.factor_grouping(used_columns)
            grid = combination_masks(grouping, pairs)
            return grouping, grid.reshape(-1), grouping.cell_weights()
        codes = dict(zip(used_columns, self.table.equality_codes(used_columns), strict=True))
        return None, columnar_equality_masks(codes, len(self.table), pairs), 1

    # ------------------------------------------------------------------ #
    # Per-tuple access
    # ------------------------------------------------------------------ #
    def mask(self, tuple_id: int) -> int:
        """The equality type E(t) of a tuple, as a bitmask."""
        if not 0 <= tuple_id < len(self.table):
            raise IndexError(f"tuple id {tuple_id} out of range")
        if self._grouping is not None:
            tuple_id = self._grouping.cell_of(tuple_id)
        return self._distinct[self._codes[tuple_id]]

    @property
    def masks(self) -> tuple[int, ...]:
        """E(t) for every tuple, indexed by tuple id (materialised lazily).

        This caches an O(#tuples) tuple on the index for the rest of its
        lifetime; full sweeps that only need the masks once should prefer
        :meth:`iter_masks`.
        """
        if self._masks is None:
            self._masks = tuple(self.iter_masks())
        return self._masks

    def iter_masks(self) -> Iterator[int]:
        """E(t) for every tuple in ``tuple_id`` order, streamed.

        Unlike :attr:`masks` this never materialises (nor caches) the full
        per-tuple tuple on a factorized index: it reads the cells one block
        per row of the leading base relation.
        """
        if self._masks is not None:
            return iter(self._masks)
        if self._grouping is None:
            blocks: Iterator[_np.ndarray] = iter([self._codes])
        else:
            blocks = (self._codes[cells] for cells in self._grouping.iter_row_cells())
        return itertools.chain.from_iterable(
            self.mask_array[codes].tolist() for codes in blocks
        )

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
            code = self.code_of.get(mask)
            if code is None:
                return ()
            found = _np.flatnonzero(self._codes == code)
            if self._grouping is not None:  # the cells are group combinations
                found = self._grouping.ids_of_cells(found)
            ids = tuple(found.tolist())
            self._ids_by_mask[mask] = ids
        return ids

    def min_tuple_id(self, mask: int) -> int | None:
        """The smallest tuple id of one equality type, or ``None``.

        One lookup in the per-type array: no id list is built, which is why
        the strategies' representative-picking tie-break reads this.
        """
        code = self.code_of.get(mask)
        return None if code is None else self._min_ids[code]

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
            count for mask, count in self._sizes_view.items() if query_mask & ~mask == 0
        )

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[int]:
        return self.iter_masks()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EqualityTypeIndex(tuples={len(self.table)}, "
            f"distinct_types={len(self._distinct)}, atoms={self.universe.size})"
        )
