"""Equality atoms and the atom universe.

A join predicate in JIM is a conjunction of *equality atoms* ``A ≍ B`` between
attributes of the candidate table.  The :class:`AtomUniverse` fixes, for a
given candidate table, the set Ω of candidate atoms the inferred query may use
(by default every type-compatible pair of attributes coming from different
base relations) and provides a compact bitmask encoding of atom sets: the
whole inference core manipulates subsets of Ω as Python integers, which makes
the subset checks at the heart of informativeness reasoning cheap.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..exceptions import AtomUniverseError
from ..relational.candidate import CandidateTable
from ..relational.types import are_compatible


@dataclass(frozen=True, order=True)
class EqualityAtom:
    """An equality atom ``left ≍ right`` between two attributes.

    Atoms are normalised so that ``left < right`` lexicographically; two atoms
    relating the same attributes therefore always compare equal.
    """

    left: str
    right: str

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise AtomUniverseError(f"an atom must relate two distinct attributes, got {self.left!r}")
        if self.left > self.right:
            # Normalise the orientation; done through __setattr__ because the
            # dataclass is frozen.
            original_left, original_right = self.left, self.right
            object.__setattr__(self, "left", original_right)
            object.__setattr__(self, "right", original_left)

    @classmethod
    def of(cls, left: str, right: str) -> EqualityAtom:
        """Build a (normalised) atom between two attribute names."""
        return cls(left, right)

    @property
    def attributes(self) -> tuple[str, str]:
        """The pair of attribute names this atom relates."""
        return (self.left, self.right)

    def holds_on(self, row: Sequence[object], position_of: dict[str, int]) -> bool:
        """Whether the atom holds on a row (``None`` never equals anything)."""
        left_value = row[position_of[self.left]]
        right_value = row[position_of[self.right]]
        if left_value is None or right_value is None:
            return False
        return left_value == right_value

    def __str__(self) -> str:
        return f"{self.left} ≍ {self.right}"


class AtomScope(enum.Enum):
    """Which attribute pairs are admitted as candidate atoms.

    ``CROSS_RELATION``
        Only pairs whose attributes come from different base relations — the
        natural choice when the candidate table is a cross product, since
        intra-relation equalities are selections, not join predicates.  Falls
        back to ``ALL_PAIRS`` when the table has no provenance information
        (the paper's denormalised-table scenario).
    ``ALL_PAIRS``
        Every pair of attributes.
    """

    CROSS_RELATION = "cross-relation"
    ALL_PAIRS = "all-pairs"


class AtomUniverse:
    """The ordered set Ω of candidate equality atoms over a candidate table.

    Every atom is assigned a bit position; sets of atoms are manipulated as
    integer bitmasks throughout the inference core.
    """

    def __init__(self, table: CandidateTable, atoms: Sequence[EqualityAtom]) -> None:
        if not atoms:
            raise AtomUniverseError(
                "the atom universe is empty: no candidate equality atoms exist for this table"
            )
        self.table = table
        self.atoms: tuple[EqualityAtom, ...] = tuple(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise AtomUniverseError("duplicate atoms in the universe")
        self._position_of = {name: pos for pos, name in enumerate(table.attribute_names)}
        for atom in self.atoms:
            for attribute in atom.attributes:
                if attribute not in self._position_of:
                    raise AtomUniverseError(
                        f"atom {atom} refers to unknown attribute {attribute!r}"
                    )
        self._index = {atom: pos for pos, atom in enumerate(self.atoms)}
        self._attribute_positions = [
            (self._position_of[atom.left], self._position_of[atom.right]) for atom in self.atoms
        ]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(
        cls,
        table: CandidateTable,
        scope: AtomScope = AtomScope.CROSS_RELATION,
        require_type_compatible: bool = True,
        include_attributes: Iterable[str] | None = None,
        exclude_attributes: Iterable[str] | None = None,
    ) -> AtomUniverse:
        """Build the default atom universe for a candidate table.

        Parameters
        ----------
        scope:
            See :class:`AtomScope`.  ``CROSS_RELATION`` silently widens to
            ``ALL_PAIRS`` when the table has no provenance information.
        require_type_compatible:
            Skip pairs whose column types can never compare equal.
        include_attributes / exclude_attributes:
            Optional allow/deny lists of attribute names.
        """
        included = set(include_attributes) if include_attributes is not None else None
        excluded = set(exclude_attributes) if exclude_attributes is not None else set()
        effective_scope = scope
        if scope is AtomScope.CROSS_RELATION and not table.has_provenance():
            effective_scope = AtomScope.ALL_PAIRS
        atoms = []
        for left, right in itertools.combinations(table.attributes, 2):
            if left.name in excluded or right.name in excluded:
                continue
            if included is not None and (left.name not in included or right.name not in included):
                continue
            if effective_scope is AtomScope.CROSS_RELATION and (
                left.source_relation == right.source_relation
            ):
                continue
            if require_type_compatible and not are_compatible(left.data_type, right.data_type):
                continue
            atoms.append(EqualityAtom.of(left.name, right.name))
        return cls(table, atoms)

    @classmethod
    def shared(
        cls, table: CandidateTable, scope: AtomScope = AtomScope.CROSS_RELATION
    ) -> AtomUniverse:
        """The default universe of ``scope`` over ``table``, built once per table.

        :meth:`from_table` with default filters, memoised on the table (see
        :meth:`~repro.relational.candidate.CandidateTable.derived`), so the
        sessions over one table share one universe object — and, through
        :meth:`~repro.core.equality_types.EqualityTypeIndex.shared`, one
        equality-type index.
        """
        return table.derived((cls, scope), lambda: cls.from_table(table, scope=scope))

    # ------------------------------------------------------------------ #
    # Bitmask encoding
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of atoms in the universe."""
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        """Bitmask with every atom present (the most specific query Ω)."""
        return (1 << len(self.atoms)) - 1

    @property
    def attribute_positions(self) -> tuple[tuple[int, int], ...]:
        """Per atom, the (left, right) column positions it relates.

        The column-pair view of the universe, in bit order — what the
        columnar equality-type construction iterates over.
        """
        return tuple(self._attribute_positions)

    def index_of(self, atom: EqualityAtom) -> int:
        """Bit position of an atom."""
        try:
            return self._index[atom]
        except KeyError as exc:
            raise AtomUniverseError(f"atom {atom} is not part of this universe") from exc

    def __contains__(self, atom: EqualityAtom) -> bool:
        return atom in self._index

    def mask_of(self, atoms: Iterable[EqualityAtom]) -> int:
        """Bitmask of a collection of atoms."""
        mask = 0
        for atom in atoms:
            mask |= 1 << self.index_of(atom)
        return mask

    def atoms_of(self, mask: int) -> tuple[EqualityAtom, ...]:
        """Atoms present in a bitmask, in universe order."""
        if mask < 0 or mask > self.full_mask:
            raise AtomUniverseError(f"mask {mask} is outside this universe")
        return tuple(atom for pos, atom in enumerate(self.atoms) if mask >> pos & 1)

    def equality_mask(self, row: Sequence[object]) -> int:
        """The equality type E(t) of a row, as a bitmask.

        Bit ``i`` is set exactly when atom ``i`` holds on the row; ``None``
        (null) values never satisfy any atom.
        """
        mask = 0
        for pos, (left_pos, right_pos) in enumerate(self._attribute_positions):
            left_value = row[left_pos]
            if left_value is None:
                continue
            if left_value == row[right_pos]:
                mask |= 1 << pos
        return mask

    def describe_mask(self, mask: int) -> str:
        """Human-readable rendering of a bitmask (``"A ≍ B ∧ C ≍ D"``)."""
        atoms = self.atoms_of(mask)
        if not atoms:
            return "⊤ (no equality required)"
        return " ∧ ".join(str(atom) for atom in atoms)

    def __iter__(self) -> Iterator[EqualityAtom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AtomUniverse(table={self.table.name!r}, atoms={len(self.atoms)})"


def popcount(mask: int) -> int:
    """Number of set bits in a mask (number of atoms in the encoded set)."""
    return bin(mask).count("1")


def is_subset(inner: int, outer: int) -> bool:
    """Whether the atom set encoded by ``inner`` is a subset of ``outer``."""
    return inner & ~outer == 0
