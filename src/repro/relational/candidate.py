"""Candidate tables: the denormalised tuple space the user labels.

JIM presents the user with tuples of the cross product of the relations to be
joined (the paper's Figure 1 shows such a denormalised table for a flight and
a hotel relation).  A :class:`CandidateTable` represents that space — either
directly from flat rows, or as the (optionally sampled) cross product of the
relations of a :class:`~repro.relational.instance.DatabaseInstance` — and
records, for every column, which base relation it came from.  The origin
information is what lets the atom universe restrict candidate equality atoms
to cross-relation pairs, exactly like join predicates in the paper.

**Columnar core.**  An unsampled cross product is *not* materialised: the
table keeps a :class:`~repro.relational.columnar.ProductFactorization` (the
base relations' rows plus mixed-radix arithmetic) and reconstructs candidate
rows on demand from their ``tuple_id``.  ``table.rows`` stays available as a
lazy, cached property for code that genuinely needs the flat form, but the
setup pipeline (atom universe, equality-type index, fingerprinting, query
evaluation) works on the factorized/columnar view and never pays the
O(|R₁|·…·|Rₖ|) materialisation.  Flat tables (given rows, or sampled cross
products) store their rows eagerly, as before, and expose the same columnar
encoding through :meth:`CandidateTable.equality_codes`.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TypeVar

from ..exceptions import CandidateTableError, UnknownAttributeError
from .columnar import FactorGrouping, ProductFactorization, ValueCodec, group_product
from .instance import DatabaseInstance
from .relation import Relation
from .types import DataType, infer_row_types

Row = tuple
_T = TypeVar("_T")


@dataclass(frozen=True)
class CandidateAttribute:
    """A column of the candidate table.

    ``source_relation`` is ``None`` for flat tables whose provenance is
    unknown (the paper's motivating scenario: "no knowledge of the schema and
    of the provenance of the data").
    """

    name: str
    data_type: DataType = DataType.TEXT
    source_relation: str | None = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class CandidateTable:
    """The denormalised table of candidate tuples presented to the user.

    Rows are addressed by a stable integer ``tuple_id`` (their position),
    which is the identifier the inference core, oracles and sessions use.
    """

    def __init__(
        self,
        attributes: Sequence[CandidateAttribute],
        rows: Iterable[Sequence[object]],
        name: str = "candidates",
    ) -> None:
        self._init_schema(attributes, name)
        self._factorization: ProductFactorization | None = None
        self._rows: tuple[Row, ...] | None = tuple(tuple(row) for row in rows)
        for row in self._rows:
            if len(row) != len(self.attributes):
                raise CandidateTableError(
                    f"row arity {len(row)} does not match attribute count {len(self.attributes)}"
                )
        self._num_rows = len(self._rows)

    def _init_schema(self, attributes: Sequence[CandidateAttribute], name: str) -> None:
        self.name = name
        self.attributes: tuple[CandidateAttribute, ...] = tuple(attributes)
        if not self.attributes:
            raise CandidateTableError("a candidate table needs at least one attribute")
        names = [attr.name for attr in self.attributes]
        if len(set(names)) != len(names):
            raise CandidateTableError("candidate attribute names must be unique")
        self._index = {attr.name: pos for pos, attr in enumerate(self.attributes)}
        self._fingerprint: str | None = None
        self._derived: dict[Hashable, object] = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_factorization(
        cls,
        attributes: Sequence[CandidateAttribute],
        factorization: ProductFactorization,
        name: str,
    ) -> CandidateTable:
        """Build a table over a factorized cross product (rows stay lazy)."""
        table = cls.__new__(cls)
        table._init_schema(attributes, name)
        table._factorization = factorization
        table._rows = None
        table._num_rows = factorization.num_rows
        return table

    @classmethod
    def from_rows(
        cls,
        attribute_names: Sequence[str],
        rows: Iterable[Sequence[object]],
        name: str = "candidates",
        source_relations: Sequence[str | None] | None = None,
    ) -> CandidateTable:
        """Build a candidate table from flat rows, inferring column types.

        ``source_relations`` optionally records, per column, the base relation
        it conceptually belongs to (used to scope the atom universe).  All
        column types are inferred in a single pass over the rows.
        """
        materialised = [tuple(row) for row in rows]
        for row in materialised:
            if len(row) != len(attribute_names):
                raise CandidateTableError(
                    f"row arity {len(row)} does not match attribute count {len(attribute_names)}"
                )
        if source_relations is not None and len(source_relations) != len(attribute_names):
            raise CandidateTableError(
                "source_relations must have one entry per attribute when provided"
            )
        if materialised:
            data_types = infer_row_types(materialised, len(attribute_names))
        else:
            # No rows to infer from: keep the historical TEXT default.
            data_types = [DataType.TEXT] * len(attribute_names)
        attributes = [
            CandidateAttribute(
                attr_name,
                data_types[pos],
                source_relations[pos] if source_relations is not None else None,
            )
            for pos, attr_name in enumerate(attribute_names)
        ]
        return cls(attributes, materialised, name=name)

    @classmethod
    def from_relation(cls, relation: Relation, name: str | None = None) -> CandidateTable:
        """Treat a single (already denormalised) relation as the candidate table."""
        attributes = [
            CandidateAttribute(attr.short_name, attr.data_type, None)
            for attr in relation.schema.attributes
        ]
        return cls(attributes, relation.rows, name=name or relation.name)

    @classmethod
    def cross_product(
        cls,
        instance: DatabaseInstance,
        relation_names: Sequence[str] | None = None,
        name: str | None = None,
        max_rows: int | None = None,
        rng: random.Random | None = None,
    ) -> CandidateTable:
        """Build the cross product of the given relations as a candidate table.

        Column names are qualified (``Relation.attr``).  When ``max_rows`` is
        given and the full cross product is larger, a uniform random sample of
        ``max_rows`` combinations is drawn (reproducible via ``rng``) — the
        substitution for presenting only a manageable subset to the user.

        The unsampled product is kept *factorized* (base relation rows plus
        mixed-radix decoding); the flat rows are reconstructed lazily and
        only if something asks for them.
        """
        names = list(relation_names) if relation_names is not None else list(instance.relation_names)
        if not names:
            raise CandidateTableError("cross product needs at least one relation")
        relations = [instance.relation(rel_name) for rel_name in names]
        attributes: list[CandidateAttribute] = []
        for relation in relations:
            for attr in relation.schema.attributes:
                attributes.append(
                    CandidateAttribute(attr.qualified_name, attr.data_type, relation.name)
                )
        total = 1
        for relation in relations:
            total *= len(relation)
        table_name = name or "x".join(names)
        if total == 0:
            return cls(attributes, [], name=table_name)
        if max_rows is not None and total > max_rows:
            rng = rng or random.Random(0)
            sizes = [len(relation) for relation in relations]
            relation_rows = [relation.rows for relation in relations]
            chosen = rng.sample(range(total), max_rows)
            rows = []
            for flat_index in sorted(chosen):
                row: list[object] = []
                remainder = flat_index
                # Mixed-radix decoding of the flat index into one index per relation.
                for rel_rows, size in zip(reversed(relation_rows), reversed(sizes), strict=True):
                    remainder, position = divmod(remainder, size)
                    row = list(rel_rows[position]) + row
                rows.append(tuple(row))
            return cls(attributes, rows, name=table_name)
        factorization = ProductFactorization(
            [relation.rows for relation in relations],
            [relation.arity for relation in relations],
        )
        return cls._from_factorization(attributes, factorization, name=table_name)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> tuple[Row, ...]:
        """All rows, in ``tuple_id`` order.

        For factorized cross products the flat tuple is materialised lazily
        on first access and cached; prefer :meth:`row`, :meth:`column` or
        iteration when the full materialisation is not needed.
        """
        if self._rows is None:
            assert self._factorization is not None
            self._rows = tuple(self._factorization.iter_rows())
        return self._rows

    def factorization(self) -> ProductFactorization | None:
        """The factorized form of the table, when it is an unsampled product."""
        return self._factorization

    def is_materialized(self) -> bool:
        """Whether the flat rows are currently held in memory."""
        return self._rows is not None

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Column names, in order."""
        return tuple(attr.name for attr in self.attributes)

    @property
    def tuple_ids(self) -> range:
        """All valid tuple identifiers."""
        return range(self._num_rows)

    def position_of(self, attribute_name: str) -> int:
        """Index of a column by name."""
        try:
            return self._index[attribute_name]
        except KeyError as exc:
            raise UnknownAttributeError(
                f"candidate table has no attribute {attribute_name!r}"
            ) from exc

    def attribute(self, attribute_name: str) -> CandidateAttribute:
        """The :class:`CandidateAttribute` with the given name."""
        return self.attributes[self.position_of(attribute_name)]

    def value(self, tuple_id: int, attribute_name: str) -> object:
        """The value of one attribute of one tuple."""
        return self.row(tuple_id)[self.position_of(attribute_name)]

    def row(self, tuple_id: int) -> Row:
        """The tuple with the given identifier (decoded on demand)."""
        if self._rows is not None:
            try:
                return self._rows[tuple_id]
            except IndexError as exc:
                raise CandidateTableError(f"unknown tuple id {tuple_id}") from exc
        if not 0 <= tuple_id < self._num_rows:
            raise CandidateTableError(f"unknown tuple id {tuple_id}")
        assert self._factorization is not None
        return self._factorization.row(tuple_id)

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by attribute name."""
        names = self.attribute_names
        return [dict(zip(names, row, strict=True)) for row in self]

    def column(self, attribute_name: str) -> list[object]:
        """All values of a column, in row order (factorized: tile/repeat)."""
        position = self.position_of(attribute_name)
        if self._rows is None:
            assert self._factorization is not None
            return self._factorization.column_values(position)
        return [row[position] for row in self._rows]

    def equality_codes(self, columns: Sequence[int] | None = None) -> list[list[int]]:
        """Value-interned code arrays for the given columns (all by default).

        Codes follow Python ``==`` semantics and are comparable *across* the
        returned columns (one shared codec per call); negative codes mark
        cells (``None``/NaN) that never compare equal to anything.  On a
        factorized table the columns are encoded by tile/repeat — the flat
        ``rows`` tuple is never materialised.  Raises
        :class:`~repro.relational.columnar.UnencodableValue` on unhashable
        cells.
        """
        positions = list(columns) if columns is not None else list(range(len(self.attributes)))
        codec = ValueCodec()
        if self._rows is None:
            assert self._factorization is not None
            return [
                codec.encode(self._factorization.column_values(position))
                for position in positions
            ]
        rows = self._rows
        return [codec.encode([row[position] for row in rows]) for position in positions]

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """A structure derived from the table's content, built once per ``key``.

        Tables are immutable, so anything computed from their content alone
        (a column grouping, a type histogram) can live as long as the table
        does; layers above store such structures here under a key of their
        own choosing.  ``build`` runs on the first call for ``key``; a build
        that raises caches nothing.  Two threads racing on a cold key may
        both build, and both get the value stored first.
        """
        derived = self._derived
        if key not in derived:
            derived.setdefault(key, build())
        return derived[key]  # type: ignore[return-value]

    def factor_grouping(self, columns: Sequence[int]) -> FactorGrouping:
        """Cached :func:`~repro.relational.columnar.group_product` over this table.

        Only meaningful on factorized tables.  The grouping of a column
        subset is immutable, so it is memoised per subset (see
        :meth:`derived`) — the equality-type index and repeated query
        evaluations (e.g. drawing goal queries) share one encoding pass
        instead of re-interning the base relations per call.  Raises
        :class:`~repro.relational.columnar.UnencodableValue` on unhashable
        cells (failures are not cached).
        """
        factorization = self._factorization
        if factorization is None:
            raise CandidateTableError("factor_grouping needs a factorized table")
        key = tuple(columns)
        return self.derived(
            (FactorGrouping, key), lambda: group_product(factorization, key)
        )

    def fingerprint(self) -> str:
        """A stable content fingerprint (attributes + rows), memoised.

        Streaming: factorized tables are hashed row by row without
        materialising the flat ``rows`` tuple.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(repr(self.attribute_names).encode("utf-8"))
            for row in self:
                digest.update(repr(row).encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def source_relations(self) -> tuple[str | None, ...]:
        """The source relation of each column (``None`` when unknown)."""
        return tuple(attr.source_relation for attr in self.attributes)

    def has_provenance(self) -> bool:
        """Whether every column knows the base relation it comes from."""
        return all(attr.source_relation is not None for attr in self.attributes)

    def subset(self, tuple_ids: Sequence[int], name: str | None = None) -> CandidateTable:
        """A new candidate table containing only the given tuples (re-numbered)."""
        rows = [self.row(tuple_id) for tuple_id in tuple_ids]
        return CandidateTable(self.attributes, rows, name=name or f"{self.name}-subset")

    def __iter__(self) -> Iterator[Row]:
        if self._rows is not None:
            return iter(self._rows)
        assert self._factorization is not None
        return self._factorization.iter_rows()

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CandidateTable({self.name!r}, attributes={len(self.attributes)}, "
            f"rows={self._num_rows})"
        )


def denormalize(
    instance: DatabaseInstance,
    relation_names: Sequence[str] | None = None,
    max_rows: int | None = None,
    rng: random.Random | None = None,
) -> CandidateTable:
    """Shorthand for :meth:`CandidateTable.cross_product`."""
    return CandidateTable.cross_product(
        instance, relation_names=relation_names, max_rows=max_rows, rng=rng
    )


def candidate_table_to_relation(table: CandidateTable, name: str | None = None) -> Relation:
    """Convert a candidate table back into a flat relation (for CSV/SQLite export)."""
    return Relation.build(
        name or table.name,
        # SQLite and RelationSchema dislike dots in plain column names, so the
        # qualified name's dot is replaced by an underscore on conversion.
        [attr.name.replace(".", "_") for attr in table.attributes],
        table.rows,
        data_types=[attr.data_type for attr in table.attributes],
    )
