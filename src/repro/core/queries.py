"""Join queries: conjunctions of equality atoms.

A :class:`JoinQuery` is the object JIM infers — the n-ary equi-join predicate
θ the user "has in mind".  Semantically a query is a set of equality atoms
interpreted conjunctively over the candidate table: θ selects tuple ``t`` iff
every atom of θ holds on ``t`` (equivalently ``θ ⊆ E(t)``).

Besides evaluation the module implements the notions the paper relies on:

* **containment / implication** — ``Q2 ⊆ Q1`` as result sets; in the paper's
  example Q2 (``To ≍ City ∧ Airline ≍ Discount``) is contained in Q1
  (``To ≍ City``), which is why positive examples alone cannot distinguish
  them and negative examples are necessary;
* **instance-equivalence** — two queries selecting exactly the same tuples of
  a given candidate table; inference stops when all consistent queries are
  instance-equivalent;
* **closure / normalisation** — equality atoms are transitive, so syntactically
  different queries can be logically equivalent.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as _np

from ..relational import columnar
from ..relational.candidate import CandidateTable
from .atoms import AtomUniverse, EqualityAtom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    pass

AtomLike = EqualityAtom | tuple[str, str]


def _as_atom(value: AtomLike) -> EqualityAtom:
    if isinstance(value, EqualityAtom):
        return value
    left, right = value
    return EqualityAtom.of(left, right)


class JoinQuery:
    """An equi-join predicate: a finite set of equality atoms, conjunctively.

    Instances are immutable and hashable; the empty query (no atoms) selects
    every tuple.
    """

    __slots__ = ("_atoms",)

    def __init__(self, atoms: Iterable[AtomLike] = ()) -> None:
        self._atoms: frozenset[EqualityAtom] = frozenset(_as_atom(atom) for atom in atoms)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, *atoms: AtomLike) -> JoinQuery:
        """Build a query from atoms or ``(left, right)`` attribute pairs."""
        return cls(atoms)

    @classmethod
    def empty(cls) -> JoinQuery:
        """The query with no atoms (selects every tuple)."""
        return cls()

    @classmethod
    def from_mask(cls, universe: AtomUniverse, mask: int) -> JoinQuery:
        """Decode a bitmask over ``universe`` into a query."""
        return cls(universe.atoms_of(mask))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def atoms(self) -> frozenset[EqualityAtom]:
        """The atoms of the query."""
        return self._atoms

    @property
    def is_empty(self) -> bool:
        """Whether the query has no atoms (and thus selects everything)."""
        return not self._atoms

    def attributes(self) -> frozenset[str]:
        """All attribute names mentioned by the query."""
        return frozenset(name for atom in self._atoms for name in atom.attributes)

    def mask(self, universe: AtomUniverse) -> int:
        """Encode the query as a bitmask over ``universe``."""
        return universe.mask_of(self._atoms)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def selects_row(self, row: Sequence[object], position_of: dict[str, int]) -> bool:
        """Whether every atom of the query holds on the given row."""
        return all(atom.holds_on(row, position_of) for atom in self._atoms)

    def selects(self, table: CandidateTable, tuple_id: int) -> bool:
        """Whether the query selects the tuple with the given id."""
        position_of = {name: pos for pos, name in enumerate(table.attribute_names)}
        return self.selects_row(table.row(tuple_id), position_of)

    def _factorized_match(self, table: CandidateTable):
        """``(grouping, cells)`` for factorized evaluation, or ``None``.

        Applicable when the table is an unsampled cross product whose cells
        can be value-interned; the query is then evaluated once per
        combination of base-relation groups instead of once per candidate,
        and ``cells`` are the combinations on which every atom holds.
        """
        factorization = table.factorization()
        if factorization is None:
            return None
        position_of = {name: pos for pos, name in enumerate(table.attribute_names)}
        pairs = [
            (position_of[atom.left], position_of[atom.right]) for atom in sorted(self._atoms)
        ]
        used = sorted({position for pair in pairs for position in pair})
        try:
            grouping = table.factor_grouping(used)
        except columnar.UnencodableValue:
            return None
        grid = columnar.combination_masks(grouping, pairs).reshape(-1)
        return grouping, _np.flatnonzero(grid == (1 << len(pairs)) - 1)

    def evaluate(self, table: CandidateTable) -> frozenset[int]:
        """The set of tuple ids of ``table`` selected by the query."""
        match = self._factorized_match(table)
        if match is not None:
            grouping, cells = match
            return frozenset(grouping.ids_of_cells(cells).tolist())
        position_of = {name: pos for pos, name in enumerate(table.attribute_names)}
        # Streamed iteration: the fallback must not force a factorized table
        # (e.g. one with unhashable cells) to materialise its flat rows.
        return frozenset(
            tuple_id
            for tuple_id, row in enumerate(table)
            if self.selects_row(row, position_of)
        )

    def count_selected(self, table: CandidateTable) -> int:
        """Number of tuples selected — without enumerating them when factorized.

        On an unsampled cross product the count is the sum of the group-
        cardinality products of the matching group combinations, so it is
        independent of the candidate-table size.
        """
        match = self._factorized_match(table)
        if match is not None:
            grouping, cells = match
            return int(grouping.cell_weights()[cells].sum())
        return len(self.evaluate(table))

    def selectivity(self, table: CandidateTable) -> float:
        """Fraction of candidate tuples selected (0.0 for an empty table)."""
        if len(table) == 0:
            return 0.0
        return self.count_selected(table) / len(table)

    # ------------------------------------------------------------------ #
    # Logical structure
    # ------------------------------------------------------------------ #
    def equivalence_classes(self) -> list[frozenset[str]]:
        """Partition of the mentioned attributes into classes forced equal."""
        parent: dict[str, str] = {}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for atom in self._atoms:
            for name in atom.attributes:
                parent.setdefault(name, name)
            left_root, right_root = find(atom.left), find(atom.right)
            if left_root != right_root:
                parent[left_root] = right_root
        classes: dict[str, set[str]] = {}
        for name in parent:
            classes.setdefault(find(name), set()).add(name)
        return [frozenset(members) for members in classes.values()]

    def closure(self, universe: AtomUniverse | None = None) -> JoinQuery:
        """All atoms implied by the query through transitivity of equality.

        Without a universe the closure contains every pair of attributes in
        the same equivalence class; with a universe it is intersected with the
        universe's atoms (the relevant notion when comparing against tuple
        equality types, which are themselves universe-restricted).
        """
        implied = set()
        for members in self.equivalence_classes():
            ordered = sorted(members)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1 :]:
                    atom = EqualityAtom.of(left, right)
                    if universe is None or atom in universe:
                        implied.add(atom)
        return JoinQuery(implied)

    def implies(self, other: JoinQuery) -> bool:
        """Whether every atom of ``other`` is a logical consequence of this query.

        If ``self.implies(other)`` then every tuple selected by ``self`` is
        selected by ``other`` on every instance (``self`` is the more
        restrictive query).
        """
        return other.atoms <= self.closure().atoms

    def is_equivalent_to(self, other: JoinQuery) -> bool:
        """Logical equivalence: each query implies the other."""
        return self.implies(other) and other.implies(self)

    def instance_equivalent(self, other: JoinQuery, table: CandidateTable) -> bool:
        """Whether both queries select exactly the same tuples of ``table``."""
        return self.evaluate(table) == other.evaluate(table)

    def normalized(self) -> JoinQuery:
        """A canonical, minimal form: a spanning set of atoms per equivalence class.

        Two logically equivalent queries normalise to the same query.
        """
        atoms = []
        for members in self.equivalence_classes():
            ordered = sorted(members)
            first = ordered[0]
            atoms.extend(EqualityAtom.of(first, other) for other in ordered[1:])
        return JoinQuery(atoms)

    # ------------------------------------------------------------------ #
    # Set-like operations
    # ------------------------------------------------------------------ #
    def union(self, other: JoinQuery) -> JoinQuery:
        """The conjunction of both queries (union of their atom sets)."""
        return JoinQuery(self._atoms | other.atoms)

    def intersection(self, other: JoinQuery) -> JoinQuery:
        """The query made of the atoms common to both."""
        return JoinQuery(self._atoms & other.atoms)

    def without(self, other: JoinQuery) -> JoinQuery:
        """The query made of this query's atoms not present in ``other``."""
        return JoinQuery(self._atoms - other.atoms)

    __or__ = union
    __and__ = intersection
    __sub__ = without

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_sql(self, table: CandidateTable, flat: bool = False) -> str:
        """Render the query as SQL (relational form or flat candidate-table form)."""
        from ..relational.sql import render_flat_sql, render_join_sql

        if flat or not table.has_provenance():
            return render_flat_sql(self, table)
        return render_join_sql(self, table)

    def describe(self) -> str:
        """Human-readable conjunction, e.g. ``"Airline ≍ Discount ∧ To ≍ City"``."""
        if not self._atoms:
            return "⊤ (no equality required)"
        return " ∧ ".join(str(atom) for atom in sorted(self._atoms))

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __contains__(self, atom: AtomLike) -> bool:
        return _as_atom(atom) in self._atoms

    def __iter__(self) -> Iterator[EqualityAtom]:
        return iter(sorted(self._atoms))

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinQuery):
            return NotImplemented
        return self._atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __le__(self, other: JoinQuery) -> bool:
        """Syntactic subset of atoms (NOT semantic containment)."""
        return self._atoms <= other.atoms

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"JoinQuery({self.describe()})"
