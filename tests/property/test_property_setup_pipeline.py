"""Property-based tests: columnar/factorized setup ≡ row-at-a-time setup.

The columnar pipeline (value-interned code arrays, factorized equality-type
construction for unsampled cross products, lazy row reconstruction) must be
*observationally equivalent* to the seed's row-at-a-time path: over random
instances — including ``None`` values, sampled cross products and
single-relation tables — the masks, the distinct-type histogram, the per-type
tuple-id groups, ``selected_by`` and the reconstructed rows must all match
what evaluating every atom on every materialised row produces.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CandidateTable
from repro.core.atoms import AtomScope, AtomUniverse
from repro.core.equality_types import EqualityTypeIndex
from repro.core.queries import JoinQuery
from repro.exceptions import AtomUniverseError
from repro.relational.candidate import CandidateAttribute
from repro.relational.instance import DatabaseInstance
from repro.relational.relation import Relation
from repro.relational.types import infer_column_type

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Small mixed domains; None appears in every pool so null semantics (an atom
# never holds on a null) are exercised throughout.
_INT_POOL = [0, 1, 2, None]
_TEXT_POOL = ["a", "b", "c", None]


@st.composite
def instances(draw, max_relations: int = 3) -> DatabaseInstance:
    """Random multi-relation instances over small shared domains."""
    num_relations = draw(st.integers(min_value=1, max_value=max_relations))
    relations = []
    for index in range(num_relations):
        arity = draw(st.integers(min_value=1, max_value=3))
        num_rows = draw(st.integers(min_value=1, max_value=5))
        columns = []
        for _ in range(arity):
            pool = draw(st.sampled_from([_INT_POOL, _TEXT_POOL]))
            columns.append(
                draw(st.lists(st.sampled_from(pool), min_size=num_rows, max_size=num_rows))
            )
        rows = list(zip(*columns, strict=True))
        names = [f"a{j + 1}" for j in range(arity)]
        relations.append(Relation.build(f"R{index + 1}", names, rows))
    return DatabaseInstance("random", relations)


def _seed_rows(instance: DatabaseInstance) -> list[tuple]:
    """The eagerly materialised cross product, exactly as the seed built it."""
    return [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*(relation.rows for relation in instance.relations))
    ]


def _universe(table: CandidateTable, scope: AtomScope) -> AtomUniverse:
    try:
        return AtomUniverse.from_table(table, scope=scope)
    except AtomUniverseError:
        return None


def _seed_masks(universe: AtomUniverse) -> list[int]:
    return [universe.equality_mask(row) for row in universe.table.rows]


def _seed_groups(masks: list[int]) -> dict[int, tuple[int, ...]]:
    grouped: dict[int, list[int]] = {}
    for tuple_id, mask in enumerate(masks):
        grouped.setdefault(mask, []).append(tuple_id)
    return {mask: tuple(ids) for mask, ids in grouped.items()}


def _assert_ints(values) -> None:
    """Public returns are Python ints: wire frames JSON-encode them."""
    assert all(type(value) is int for value in values)


def _assert_index_matches_seed(index: EqualityTypeIndex, universe: AtomUniverse) -> None:
    """The index agrees with per-row atom evaluation on every observable.

    ``index`` must be fresh: the minima are checked first, so they come
    from the per-type array rather than from a cached id list.  The types
    are ordered by first appearance in tuple-id order.
    """
    masks = _seed_masks(universe)
    groups = _seed_groups(masks)
    absent = universe.full_mask + (1 << universe.size)
    for mask, ids in groups.items():
        assert index.min_tuple_id(mask) == ids[0]
        _assert_ints([index.min_tuple_id(mask)])
    for mask, ids in groups.items():
        assert index.tuples_with_mask(mask) == ids
        _assert_ints(index.tuples_with_mask(mask))
        assert index.min_tuple_id(mask) == ids[0]
    assert index.tuples_with_mask(absent) == ()
    assert index.min_tuple_id(absent) is None
    assert tuple(index.masks) == tuple(masks)
    assert [index.mask(tid) for tid in range(len(masks))] == masks
    _assert_ints(index.mask(tid) for tid in range(len(masks)))
    assert list(index.distinct_masks) == list(groups)
    assert list(index.type_sizes().items()) == [(mask, len(ids)) for mask, ids in groups.items()]
    _assert_ints(index.type_sizes().values())
    # selected_by / count_selected_by for the empty query, each atom, and Ω.
    query_masks = [0, universe.full_mask] + [1 << pos for pos in range(universe.size)]
    for query_mask in query_masks:
        expected = frozenset(
            tid for tid, mask in enumerate(masks) if query_mask & ~mask == 0
        )
        assert index.selected_by(query_mask) == expected
        assert index.count_selected_by(query_mask) == len(expected)


class TestFactorizedConstruction:
    @SETTINGS
    @given(instance=instances())
    def test_cross_product_index_matches_row_at_a_time(self, instance):
        table = CandidateTable.cross_product(instance)
        scope = (
            AtomScope.CROSS_RELATION if len(instance.relations) > 1 else AtomScope.ALL_PAIRS
        )
        universe = _universe(table, scope)
        if universe is None:
            return
        _assert_index_matches_seed(EqualityTypeIndex(universe), universe)

    @SETTINGS
    @given(instance=instances())
    def test_lazy_rows_match_seed_materialisation(self, instance):
        table = CandidateTable.cross_product(instance)
        expected = _seed_rows(instance)
        assert len(table) == len(expected)
        assert [table.row(tid) for tid in table.tuple_ids] == expected
        assert list(iter(table)) == expected
        for position, name in enumerate(table.attribute_names):
            assert table.column(name) == [row[position] for row in expected]
        # The cached flat tuple (materialised last) agrees too.
        assert list(table.rows) == expected

    @SETTINGS
    @given(instance=instances(), data=st.data())
    def test_query_evaluation_matches_row_loop(self, instance, data):
        table = CandidateTable.cross_product(instance)
        scope = (
            AtomScope.CROSS_RELATION if len(instance.relations) > 1 else AtomScope.ALL_PAIRS
        )
        universe = _universe(table, scope)
        if universe is None:
            return
        num_atoms = data.draw(
            st.integers(min_value=0, max_value=min(3, universe.size)), label="num_atoms"
        )
        atoms = data.draw(
            st.permutations(list(universe.atoms)).map(lambda order: order[:num_atoms]),
            label="atoms",
        )
        query = JoinQuery(atoms)
        position_of = {name: pos for pos, name in enumerate(table.attribute_names)}
        expected = frozenset(
            tid
            for tid, row in enumerate(_seed_rows(instance))
            if query.selects_row(row, position_of)
        )
        assert query.evaluate(table) == expected
        assert query.count_selected(table) == len(expected)

    @SETTINGS
    @given(instance=instances())
    def test_fingerprint_matches_flat_equivalent_and_is_memoised(self, instance):
        table = CandidateTable.cross_product(instance)
        flat = CandidateTable(table.attributes, _seed_rows(instance), name=table.name)
        assert table.fingerprint() == flat.fingerprint()
        assert table.fingerprint() is table.fingerprint()  # cached, not recomputed


class TestFlatAndSampledConstruction:
    @SETTINGS
    @given(instance=instances(max_relations=2), data=st.data())
    def test_sampled_cross_product_index_matches_row_at_a_time(self, instance, data):
        max_rows = data.draw(st.integers(min_value=1, max_value=8), label="max_rows")
        table = CandidateTable.cross_product(
            instance, max_rows=max_rows, rng=random.Random(7)
        )
        scope = (
            AtomScope.CROSS_RELATION if len(instance.relations) > 1 else AtomScope.ALL_PAIRS
        )
        universe = _universe(table, scope)
        if universe is None:
            return
        _assert_index_matches_seed(EqualityTypeIndex(universe), universe)

    @SETTINGS
    @given(instance=instances(max_relations=1))
    def test_single_relation_table_index_matches_row_at_a_time(self, instance):
        relation = instance.relations[0]
        table = CandidateTable.from_relation(relation)
        universe = _universe(table, AtomScope.ALL_PAIRS)
        if universe is None:
            return
        _assert_index_matches_seed(EqualityTypeIndex(universe), universe)

    @SETTINGS
    @given(instance=instances())
    def test_from_rows_single_pass_inference_matches_per_column(self, instance):
        rows = _seed_rows(instance)
        names = [f"c{i}" for i in range(len(rows[0]))] if rows else ["c0"]
        table = CandidateTable.from_rows(names, rows)
        for position, name in enumerate(names):
            expected = infer_column_type(row[position] for row in rows)
            assert table.attribute(name).data_type is expected


class TestUnencodableFallback:
    def test_unhashable_cells_fall_back_to_row_at_a_time(self):
        class Weird:
            """Equal-by-payload but unhashable — cannot be interned."""

            __hash__ = None

            def __init__(self, payload):
                self.payload = payload

            def __eq__(self, other):
                return isinstance(other, Weird) and self.payload == other.payload

        rows = [
            (Weird(1), Weird(1)),
            (Weird(1), Weird(2)),
            (None, Weird(2)),
        ]
        table = CandidateTable(
            [CandidateAttribute("left"), CandidateAttribute("right")], rows
        )
        universe = AtomUniverse.from_table(
            table, scope=AtomScope.ALL_PAIRS, require_type_compatible=False
        )
        index = EqualityTypeIndex(universe)
        assert list(index.masks) == [1, 0, 0]
        assert dict(index.type_sizes()) == {1: 1, 0: 2}
