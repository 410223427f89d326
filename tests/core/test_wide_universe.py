"""Universes past 62 atoms: sessions run on the object lane and converge.

Two relations with eight attributes each already give 64 cross-relation
atoms, one past the int64 lane.  The type table then keeps its masks as
Python ints in a numpy ``object`` array, and the same kernels run on it.
"""

from __future__ import annotations

import random

from repro import GoalQueryOracle, infer_join
from repro.core.atoms import AtomUniverse
from repro.core.equality_types import EqualityTypeIndex
from repro.core.queries import JoinQuery
from repro.core.state import InferenceState
from repro.datasets.synthetic import SyntheticConfig, generate_candidate_table, random_goal_query
from repro.relational.candidate import CandidateTable
from repro.relational.instance import DatabaseInstance
from repro.relational.relation import Relation


def _dead_top_atoms_table() -> CandidateTable:
    """R1 and R2 with eight attributes each, 12 rows; R1.a8 matches no R2 cell.

    The eight atoms on R1.a8 are the universe's top ones (bits 56–63), so
    every equality type fits below bit 62 while ``M = Ω`` holds bit 63.
    """
    rng = random.Random(5)
    names = [f"a{i}" for i in range(1, 9)]
    left = [
        tuple(rng.randrange(3) for _ in range(7)) + (100 + rng.randrange(3),) for _ in range(12)
    ]
    right = [tuple(rng.randrange(3) for _ in range(8)) for _ in range(12)]
    instance = DatabaseInstance(
        "dead-top-atoms", [Relation.build("R1", names, left), Relation.build("R2", names, right)]
    )
    return CandidateTable.cross_product(instance)


def test_dead_top_atoms_start_a_session_and_converge():
    table = _dead_top_atoms_table()
    state = InferenceState(table)
    assert len(state.universe.atoms) == 64
    assert max(state.type_index.distinct_masks) < 1 << 62
    assert state.space.positive_mask >> 63 == 1
    assert state.has_informative_tuple()
    goal = JoinQuery([("R1.a1", "R2.a2"), ("R1.a3", "R2.a5")])
    assert 0 < goal.count_selected(table) < len(table)
    result = infer_join(table, GoalQueryOracle(goal), strategy="lookahead-entropy")
    assert result.converged
    assert result.matches_goal(goal)


def test_64_atom_guided_lookahead_session_converges():
    # 2 × 8 attributes × 40 tuples, domain 3: 1 600 candidates, 64 atoms.
    config = SyntheticConfig(
        num_relations=2, attributes_per_relation=8, tuples_per_relation=40, domain_size=3, seed=0
    )
    table = generate_candidate_table(config)
    goal = random_goal_query(table, num_atoms=2, seed=1)
    state = InferenceState(table)
    assert len(state.universe.atoms) == 64
    assert state.type_table.informative_arrays()[0].dtype == object
    result = infer_join(table, GoalQueryOracle(goal), strategy="lookahead-entropy")
    assert result.converged
    assert result.matches_goal(goal)


def test_64_atom_factorized_index_matches_row_at_a_time():
    # 2 × 8 attributes × 6 rows over {0, 1, None}: 36 candidates, 64 atoms,
    # so the grid of group-combination masks is an ``object`` array.
    rng = random.Random(11)
    names = [f"a{i}" for i in range(1, 9)]
    relations = [
        Relation.build(
            name, names, [tuple(rng.choice([0, 1, None]) for _ in names) for _ in range(6)]
        )
        for name in ("R1", "R2")
    ]
    table = CandidateTable.cross_product(DatabaseInstance("wide-nulls", relations))
    universe = AtomUniverse.from_table(table)
    assert universe.size == 64
    index = EqualityTypeIndex(universe)
    masks = [universe.equality_mask(row) for row in table]
    groups: dict[int, list[int]] = {}
    for tuple_id, mask in enumerate(masks):
        groups.setdefault(mask, []).append(tuple_id)
    assert max(groups) >= 1 << 62
    assert list(index.masks) == masks
    assert [index.mask(tuple_id) for tuple_id in range(len(table))] == masks
    assert list(index.distinct_masks) == list(groups)
    assert list(index.type_sizes().items()) == [(mask, len(ids)) for mask, ids in groups.items()]
    for mask, ids in groups.items():
        assert index.min_tuple_id(mask) == ids[0]
        assert index.tuples_with_mask(mask) == tuple(ids)
    query = JoinQuery([("R1.a1", "R2.a1"), ("R1.a8", "R2.a8")])
    position_of = {name: pos for pos, name in enumerate(table.attribute_names)}
    expected = frozenset(
        tuple_id for tuple_id, row in enumerate(table) if query.selects_row(row, position_of)
    )
    assert expected
    assert query.evaluate(table) == expected
    assert query.count_selected(table) == len(expected)
