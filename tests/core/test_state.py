"""Tests for the inference state: labeling, convergence, lookahead primitives."""

from __future__ import annotations

import numpy
import pytest

from repro import (
    AtomScope,
    AtomUniverse,
    InferenceState,
    JoinQuery,
    Label,
    TupleStatus,
)
from repro.core.equality_types import EqualityTypeIndex
from repro.datasets import flights_hotels, synthetic
from repro.exceptions import InconsistentLabelError

tid = flights_hotels.paper_tuple_id


class TestLabeling:
    def test_add_label_accepts_string_spellings(self, figure1_state):
        result = figure1_state.add_label(tid(3), "+")
        assert result.label is Label.POSITIVE

    def test_unknown_tuple_id_rejected(self, figure1_state):
        with pytest.raises(InconsistentLabelError):
            figure1_state.add_label(99, Label.POSITIVE)

    @pytest.mark.parametrize("tuple_id", [True, 1.0, -1, 12, "3"])
    def test_non_ids_rejected_by_status_and_add_label(self, figure1_state, tuple_id):
        with pytest.raises(InconsistentLabelError, match="unknown tuple id"):
            figure1_state.status(tuple_id)
        with pytest.raises(InconsistentLabelError, match="unknown tuple id"):
            figure1_state.add_label(tuple_id, Label.POSITIVE)
        assert len(figure1_state.examples) == 0

    def test_numpy_integer_ids_are_normalised(self, figure1_state):
        result = figure1_state.add_label(numpy.int64(tid(3)), Label.POSITIVE)
        assert type(result.tuple_id) is int
        assert [type(t) for t in figure1_state.labeled_ids()] == [int]
        assert figure1_state.status(numpy.int32(tid(3))) is TupleStatus.LABELED_POSITIVE

    def test_contradicting_certain_tuple_rejected_in_strict_mode(self, figure1_state):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        # (4) is certain-positive now; labeling it negative contradicts the examples.
        with pytest.raises(InconsistentLabelError):
            figure1_state.add_label(tid(4), Label.NEGATIVE)

    def test_state_unchanged_after_rejected_label(self, figure1_state):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        before = figure1_state.statuses()
        with pytest.raises(InconsistentLabelError):
            figure1_state.add_label(tid(4), Label.NEGATIVE)
        assert figure1_state.statuses() == before
        assert len(figure1_state.examples) == 1

    def test_certain_tuple_may_receive_its_implied_label(self, figure1_state):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        result = figure1_state.add_label(tid(4), Label.POSITIVE)
        assert result.pruned_count == 0  # nothing new

    def test_non_strict_mode_accepts_contradictions(self, figure1_table):
        state = InferenceState(figure1_table, strict=False)
        state.add_label(tid(3), Label.POSITIVE)
        result = state.add_label(tid(4), Label.NEGATIVE)
        assert not result.consistent
        assert not state.is_consistent()


class TestConvergence:
    def test_fresh_state_not_converged(self, figure1_state):
        assert not figure1_state.is_converged()
        assert figure1_state.has_informative_tuple()

    def test_convergence_after_identifying_labels(self, figure1_state, query_q2, figure1_table):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        figure1_state.add_label(tid(7), Label.NEGATIVE)
        figure1_state.add_label(tid(8), Label.NEGATIVE)
        assert figure1_state.is_converged()
        assert figure1_state.inferred_query().instance_equivalent(query_q2, figure1_table)

    def test_inferred_query_before_any_label_is_full_universe(self, figure1_state):
        assert len(figure1_state.inferred_query()) == figure1_state.universe.size

    def test_single_tuple_with_full_type_is_converged_from_the_start(self):
        # The only tuple satisfies every atom, so every query selects it:
        # no membership query can bring information and inference is done.
        from repro import CandidateTable

        table = CandidateTable.from_rows(["a", "b"], [(1, 1)])
        state = InferenceState(table)
        assert state.is_converged()
        assert state.status(0) is TupleStatus.CERTAIN_POSITIVE

    def test_single_non_matching_tuple_needs_exactly_one_label(self):
        from repro import CandidateTable

        table = CandidateTable.from_rows(["a", "b"], [(1, 2)])
        state = InferenceState(table)
        assert not state.is_converged()
        state.add_label(0, Label.NEGATIVE)
        assert state.is_converged()


class TestClassificationAccessors:
    def test_informative_certain_labeled_partition(self, figure1_state):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        informative = set(figure1_state.informative_ids())
        certain = set(figure1_state.certain_ids())
        labeled = set(figure1_state.labeled_ids())
        assert informative | certain | labeled == set(range(12))
        assert informative.isdisjoint(certain)
        assert labeled == {tid(3)}

    def test_status_of_labeled_tuple(self, figure1_state):
        figure1_state.add_label(tid(8), Label.NEGATIVE)
        assert figure1_state.status(tid(8)) is TupleStatus.LABELED_NEGATIVE


class TestLookaheadPrimitives:
    def test_prune_counts_match_simulation(self, figure1_state):
        for tuple_id in figure1_state.informative_ids():
            expected_plus = _resolved_by_simulation(figure1_state, tuple_id, Label.POSITIVE)
            expected_minus = _resolved_by_simulation(figure1_state, tuple_id, Label.NEGATIVE)
            assert figure1_state.prune_counts(tuple_id) == (expected_plus, expected_minus)

    def test_prune_counts_match_simulation_mid_inference(self, figure1_state):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        for tuple_id in figure1_state.informative_ids():
            expected_plus = _resolved_by_simulation(figure1_state, tuple_id, Label.POSITIVE)
            expected_minus = _resolved_by_simulation(figure1_state, tuple_id, Label.NEGATIVE)
            assert figure1_state.prune_counts(tuple_id) == (expected_plus, expected_minus)

    def test_simulate_label_leaves_original_untouched(self, figure1_state):
        clone = figure1_state.simulate_label(tid(3), Label.POSITIVE)
        assert len(figure1_state.examples) == 0
        assert len(clone.examples) == 1
        assert clone is not figure1_state

    def test_copy_shares_immutable_parts(self, figure1_state):
        clone = figure1_state.copy()
        assert clone.table is figure1_state.table
        assert clone.universe is figure1_state.universe
        assert clone.type_index is figure1_state.type_index
        assert clone.examples is not figure1_state.examples


class TestStatisticsAndUniverse:
    def test_statistics_percentages_sum_to_100(self, figure1_state):
        figure1_state.add_label(tid(3), Label.POSITIVE)
        stats = figure1_state.statistics()
        total_pct = stats["labeled_pct"] + stats["uninformative_pct"] + stats["informative_pct"]
        assert total_pct == pytest.approx(100.0)

    def test_custom_universe_is_respected(self, figure1_table):
        universe = AtomUniverse.from_table(figure1_table, include_attributes=["To", "City"])
        state = InferenceState(figure1_table, universe=universe)
        assert state.universe.size == 1
        # One positive example is not enough: the empty query is still consistent
        # (the paper's point that negative examples are necessary).
        state.add_label(tid(3), Label.POSITIVE)
        assert not state.is_converged()
        state.add_label(tid(1), Label.NEGATIVE)
        assert state.is_converged()
        assert state.inferred_query() == JoinQuery.of(("To", "City"))

    def test_all_pairs_scope_changes_universe(self, figure1_table):
        state = InferenceState(figure1_table, scope=AtomScope.ALL_PAIRS)
        assert state.universe.size == 10



class TestSharedTypeIndex:
    """The equality-type index depends on the table alone and is built once per table."""

    def test_states_over_one_table_share_index_and_universe(self, figure1_table):
        first = InferenceState(figure1_table)
        second = InferenceState(figure1_table, strict=False)
        assert second.type_index is first.type_index
        assert second.universe is first.universe
        assert first.universe is first.space.universe
        assert first.universe is first.type_index.universe

    def test_index_is_built_once_per_table(self, figure1_table, monkeypatch):
        builds = _count_index_builds(monkeypatch)
        for _ in range(3):
            InferenceState(figure1_table)
        assert builds == [figure1_table]
        # A second instance with the same content is a table of its own.
        InferenceState(flights_hotels.figure1_table())
        assert len(builds) == 2

    def test_factorized_table_shares_its_index(self, monkeypatch):
        table = synthetic.generate_candidate_table(
            synthetic.SyntheticConfig(tuples_per_relation=6, domain_size=3, seed=2)
        )
        assert table.factorization() is not None
        builds = _count_index_builds(monkeypatch)
        first, second = InferenceState(table), InferenceState(table)
        assert first.type_index is second.type_index
        assert len(builds) == 1

    def test_other_atom_sets_get_their_own_index(self, figure1_table):
        default = InferenceState(figure1_table)
        all_pairs = InferenceState(figure1_table, scope=AtomScope.ALL_PAIRS)
        narrow = InferenceState(
            figure1_table,
            universe=AtomUniverse.from_table(figure1_table, include_attributes=["To", "City"]),
        )
        indexes = {id(default.type_index), id(all_pairs.type_index), id(narrow.type_index)}
        assert len(indexes) == 3
        assert all_pairs.type_index is InferenceState(figure1_table, scope=AtomScope.ALL_PAIRS).type_index

    def test_explicit_universe_with_the_default_atoms_shares_the_index(self, figure1_table):
        default = InferenceState(figure1_table)
        explicit = AtomUniverse.from_table(figure1_table)
        state = InferenceState(figure1_table, universe=explicit)
        assert state.type_index is default.type_index
        assert state.universe is default.universe
        assert state.space.universe is state.universe

    def test_constructor_always_builds_a_new_index(self, figure1_table):
        shared = InferenceState(figure1_table).type_index
        fresh = EqualityTypeIndex(shared.universe)
        assert fresh is not shared
        assert fresh is not EqualityTypeIndex(shared.universe)
        assert fresh.type_sizes() == shared.type_sizes()
        assert EqualityTypeIndex.shared(shared.universe) is shared


class TestSharedTypeArrays:
    """Sessions run on the index's per-type arrays and never write into them."""

    @pytest.mark.parametrize("factorized", [False, True])
    def test_index_arrays_are_read_only(self, figure1_table, factorized):
        table = figure1_table
        if factorized:
            table = synthetic.generate_candidate_table(
                synthetic.SyntheticConfig(tuples_per_relation=6, domain_size=3, seed=2)
            )
        index = InferenceState(table).type_index
        assert list(index.mask_array) == list(index.distinct_masks)
        assert list(index.size_array) == list(index.type_sizes().values())
        assert dict(index.code_of) == {mask: row for row, mask in enumerate(index.distinct_masks)}
        for array in (index.mask_array, index.size_array):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(TypeError):
            index.code_of[0] = 0

    def test_unlabeled_column_is_borrowed_until_the_first_label(self, figure1_table):
        state = InferenceState(figure1_table)
        sizes = state.type_index.size_array
        assert numpy.shares_memory(state.type_table._unlabeled, sizes)
        clone = state.copy()
        assert numpy.shares_memory(clone.type_table._unlabeled, sizes)
        state.add_label(tid(3), Label.POSITIVE)
        assert not numpy.shares_memory(state.type_table._unlabeled, sizes)
        assert numpy.shares_memory(clone.type_table._unlabeled, sizes)

    def test_labels_stay_in_their_own_state(self, figure1_table):
        first = InferenceState(figure1_table)
        sibling = InferenceState(figure1_table)
        index = first.type_index
        sizes_before = dict(index.type_sizes())
        array_before = index.size_array.tolist()
        count_before = sibling.informative_count()
        first.add_label(tid(3), Label.POSITIVE)
        first.add_label(tid(1), Label.NEGATIVE)
        assert first.informative_count() < count_before
        assert dict(index.type_sizes()) == sizes_before
        assert index.size_array.tolist() == array_before
        assert sibling.informative_count() == count_before
        assert InferenceState(figure1_table).informative_count() == count_before


def _count_index_builds(monkeypatch) -> list:
    """Patch a counter onto ``EqualityTypeIndex.__init__``; the list of built tables."""
    builds = []
    original = EqualityTypeIndex.__init__

    def counting_init(self, universe):
        builds.append(universe.table)
        original(self, universe)

    monkeypatch.setattr(EqualityTypeIndex, "__init__", counting_init)
    return builds


def _resolved_by_simulation(state: InferenceState, tuple_id: int, label: Label) -> int:
    """Reference implementation of prune_counts via full simulation."""
    before = set(state.informative_ids())
    after = set(state.simulate_label(tuple_id, label).informative_ids())
    return len(before - after)
