"""Tests for label propagation results."""

from __future__ import annotations

from repro import InferenceState, Label, PropagationResult, TupleStatus
from repro.core import diff_statuses
from repro.datasets import flights_hotels

tid = flights_hotels.paper_tuple_id


class TestPropagationResult:
    def test_newly_uninformative_merges_and_sorts(self):
        result = PropagationResult(
            tuple_id=0,
            label=Label.POSITIVE,
            newly_certain_positive=(5, 1),
            newly_certain_negative=(3,),
        )
        assert result.newly_uninformative == (1, 3, 5)
        assert result.pruned_count == 3

    def test_resolved_count(self):
        result = PropagationResult(
            tuple_id=0,
            label=Label.NEGATIVE,
            informative_before=10,
            informative_after=6,
        )
        assert result.resolved_count == 4

    def test_summary_mentions_label_and_counts(self):
        result = PropagationResult(tuple_id=2, label=Label.POSITIVE, informative_after=7)
        summary = result.summary()
        assert "tuple 2" in summary
        assert "+" in summary
        assert "7" in summary


class TestDiffStatuses:
    def test_only_previously_informative_tuples_counted(self):
        before = {0: TupleStatus.INFORMATIVE, 1: TupleStatus.CERTAIN_POSITIVE, 2: TupleStatus.INFORMATIVE}
        after = {0: TupleStatus.LABELED_POSITIVE, 1: TupleStatus.CERTAIN_POSITIVE, 2: TupleStatus.CERTAIN_POSITIVE}
        result = diff_statuses(before, after, labeled_tuple_id=0, label=Label.POSITIVE)
        assert result.newly_certain_positive == (2,)
        assert result.newly_certain_negative == ()
        assert result.informative_before == 2
        assert result.informative_after == 0

    def test_labeled_tuple_excluded_from_pruned(self):
        before = {0: TupleStatus.INFORMATIVE}
        after = {0: TupleStatus.LABELED_NEGATIVE}
        result = diff_statuses(before, after, labeled_tuple_id=0, label=Label.NEGATIVE)
        assert result.pruned_count == 0
        assert result.resolved_count == 1


class TestEndToEndPropagation:
    def test_figure1_positive_branch(self, figure1_table):
        state = InferenceState(figure1_table)
        result = state.add_label(tid(12), Label.POSITIVE)
        assert result.label is Label.POSITIVE
        assert set(result.newly_certain_positive) == {tid(3), tid(4), tid(7)}
        assert result.newly_certain_negative == ()
        assert result.consistent
        assert result.informative_before == 12
        assert result.informative_after == 12 - 4  # the labeled tuple + 3 pruned

    def test_figure1_negative_branch(self, figure1_table):
        state = InferenceState(figure1_table)
        result = state.add_label(tid(12), Label.NEGATIVE)
        assert set(result.newly_certain_negative) == {tid(1), tid(5), tid(9)}
        assert result.newly_certain_positive == ()

    def test_pruned_counts_accumulate_to_full_resolution(self, figure1_table, query_q2):
        from repro import GoalQueryOracle, JoinInferenceEngine

        engine = JoinInferenceEngine(figure1_table, strategy="lookahead-entropy")
        result = engine.run(GoalQueryOracle(query_q2))
        resolved = sum(p.resolved_count for p in result.trace.propagations)
        assert resolved == len(figure1_table)


class TestLazyPropagationIds:
    def test_lazy_result_equals_its_eager_twin(self, figure1_table):
        state = InferenceState(figure1_table)
        result = state.add_label(tid(12), Label.POSITIVE)
        assert result.pruned_count == 3
        eager = PropagationResult(
            tuple_id=tid(12),
            label=Label.POSITIVE,
            newly_certain_positive=tuple(sorted({tid(3), tid(4), tid(7)})),
            informative_before=12,
            informative_after=8,
        )
        assert result == eager
        assert hash(result) == hash(eager)
        assert result.summary() == eager.summary()

    def test_pickled_result_carries_its_ids_not_the_index(self, figure1_table):
        import pickle

        state = InferenceState(figure1_table)
        result = state.add_label(tid(12), Label.NEGATIVE)
        state.add_label(tid(1), Label.NEGATIVE)
        payload = pickle.dumps(result)
        assert b"EqualityTypeIndex" not in payload
        restored = pickle.loads(payload)
        assert restored == result
        assert set(restored.newly_certain_negative) == {tid(1), tid(5), tid(9)}
