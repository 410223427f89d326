"""Property-based tests: the incremental engine ≡ rebuild-from-scratch.

The incremental machinery (delta updates of the consistent space, the
per-type table, the batched prune counts) must be *observationally
equivalent* to the seed's from-scratch path: after any randomised sequence of
labels, an :class:`InferenceState` that applied them one delta at a time must
agree with a :class:`ConsistentQuerySpace` rebuilt from the full example set
on every question the interactive scenario asks — masks, statuses,
informative tuples, the loop guard, prune counts and propagation results.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CandidateTable,
    ConsistentQuerySpace,
    InferenceState,
    Label,
    TupleStatus,
)
from repro.core.informativeness import classify_all
from repro.core.informativeness import has_informative_tuple as has_informative_reference
from repro.exceptions import InconsistentLabelError

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def candidate_tables(draw, max_columns: int = 4, max_rows: int = 12) -> CandidateTable:
    """Random flat candidate tables over a small integer domain."""
    num_columns = draw(st.integers(min_value=2, max_value=max_columns))
    num_rows = draw(st.integers(min_value=1, max_value=max_rows))
    domain = draw(st.integers(min_value=2, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=domain - 1)] * num_columns),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    names = [f"c{i}" for i in range(num_columns)]
    return CandidateTable.from_rows(names, rows)


def _rebuilt_space(state: InferenceState) -> ConsistentQuerySpace:
    """The from-scratch reference: a fresh space over the same examples."""
    return ConsistentQuerySpace(state.type_index, state.examples.copy())


def _assert_equivalent(state: InferenceState) -> None:
    """The incremental state agrees with a full rebuild on every observable."""
    reference = _rebuilt_space(state)
    assert state.space.positive_mask == reference.positive_mask
    assert sorted(state.space.negative_masks) == sorted(reference.negative_masks)
    assert state.space.is_consistent() == reference.is_consistent()

    reference_statuses = classify_all(reference, state.examples)
    assert state.statuses() == reference_statuses
    assert state.informative_ids() == [
        tid for tid, status in reference_statuses.items() if status is TupleStatus.INFORMATIVE
    ]
    assert state.certain_ids() == [
        tid for tid, status in reference_statuses.items() if status.is_certain
    ]
    assert state.has_informative_tuple() == has_informative_reference(
        reference, state.examples
    )
    for tuple_id in state.table.tuple_ids:
        assert state.status(tuple_id) is reference_statuses[tuple_id]


def _apply_random_labels(state: InferenceState, labels: st.DataObject, steps: int) -> list:
    """Label random unlabeled tuples; returns the propagation results."""
    propagations = []
    for _ in range(steps):
        unlabeled = [tid for tid in state.table.tuple_ids if tid not in state.labeled_ids()]
        if not unlabeled:
            break
        tuple_id = labels.draw(st.sampled_from(unlabeled))
        positive = labels.draw(st.booleans())
        try:
            propagations.append(
                state.add_label(tuple_id, Label.POSITIVE if positive else Label.NEGATIVE)
            )
        except InconsistentLabelError:
            # Strict mode rejected a contradicting label; the state must be
            # untouched, which the equivalence check after the loop verifies.
            pass
    return propagations


def _check_propagations_against_rebuild(state: InferenceState, labels: st.DataObject) -> None:
    """Every label's propagation result ≡ the diff of two rebuilt classifications.

    A result lists its grayed-out ids lazily, so some results are read right
    after their label and the others only once every label is applied: both
    must describe their own step, and ``pruned_count`` (taken from the
    flipped types' sizes) must count exactly the listed ids.
    """
    table = state.table
    unread = []
    steps = labels.draw(st.integers(min_value=1, max_value=min(6, len(table))))
    for _ in range(steps):
        unlabeled = [tid for tid in table.tuple_ids if tid not in state.labeled_ids()]
        if not unlabeled:
            break
        tuple_id = labels.draw(st.sampled_from(unlabeled))
        positive = labels.draw(st.booleans())
        before = classify_all(_rebuilt_space(state), state.examples)
        try:
            result = state.add_label(tuple_id, Label.POSITIVE if positive else Label.NEGATIVE)
        except InconsistentLabelError:
            continue
        after = classify_all(_rebuilt_space(state), state.examples)
        expected = tuple(
            tuple(
                sorted(
                    tid
                    for tid, status in after.items()
                    if tid != tuple_id
                    and before[tid] is TupleStatus.INFORMATIVE
                    and status is certain
                )
            )
            for certain in (TupleStatus.CERTAIN_POSITIVE, TupleStatus.CERTAIN_NEGATIVE)
        )
        assert result.pruned_count == len(expected[0]) + len(expected[1])
        assert result.informative_before == sum(
            1 for status in before.values() if status is TupleStatus.INFORMATIVE
        )
        assert result.informative_after == sum(
            1 for status in after.values() if status is TupleStatus.INFORMATIVE
        )
        if labels.draw(st.booleans()):
            _assert_propagated_ids(result, expected)
        else:
            unread.append((result, expected))
    for result, expected in unread:
        _assert_propagated_ids(result, expected)


def _assert_propagated_ids(result, expected: tuple[tuple[int, ...], tuple[int, ...]]) -> None:
    assert (result.newly_certain_positive, result.newly_certain_negative) == expected
    assert result.pruned_count == len(result.newly_certain_positive) + len(
        result.newly_certain_negative
    )
    assert result.newly_uninformative == tuple(sorted(expected[0] + expected[1]))


class TestIncrementalEquivalence:
    @SETTINGS
    @given(table=candidate_tables(), labels=st.data())
    def test_state_matches_rebuild_after_every_label(self, table, labels):
        state = InferenceState(table)
        _assert_equivalent(state)
        steps = labels.draw(st.integers(min_value=0, max_value=min(8, len(table))))
        for _ in range(steps):
            unlabeled = [tid for tid in table.tuple_ids if tid not in state.labeled_ids()]
            if not unlabeled:
                break
            tuple_id = labels.draw(st.sampled_from(unlabeled))
            positive = labels.draw(st.booleans())
            try:
                state.add_label(tuple_id, Label.POSITIVE if positive else Label.NEGATIVE)
            except InconsistentLabelError:
                pass
            _assert_equivalent(state)

    @SETTINGS
    @given(table=candidate_tables(), labels=st.data())
    def test_non_strict_state_matches_rebuild(self, table, labels):
        # Non-strict mode can go inconsistent; the cache must then fall back
        # to full recomputation and still match the from-scratch reference.
        state = InferenceState(table, strict=False)
        steps = labels.draw(st.integers(min_value=0, max_value=min(8, len(table))))
        for _ in range(steps):
            unlabeled = [tid for tid in table.tuple_ids if tid not in state.labeled_ids()]
            if not unlabeled:
                break
            tuple_id = labels.draw(st.sampled_from(unlabeled))
            positive = labels.draw(st.booleans())
            state.add_label(tuple_id, Label.POSITIVE if positive else Label.NEGATIVE)
            _assert_equivalent(state)

    @SETTINGS
    @given(table=candidate_tables(), labels=st.data())
    def test_propagation_results_match_diff_of_rebuilt_statuses(self, table, labels):
        _check_propagations_against_rebuild(InferenceState(table), labels)

    @SETTINGS
    @given(table=candidate_tables(), labels=st.data())
    def test_non_strict_propagation_results_match_diff_of_rebuilt_statuses(self, table, labels):
        # Non-strict labels may leave the example set inconsistent, where
        # the type table re-evaluates every type instead of a delta.
        _check_propagations_against_rebuild(InferenceState(table, strict=False), labels)

    @SETTINGS
    @given(table=candidate_tables(), labels=st.data())
    def test_prune_counts_all_matches_per_tuple_counts(self, table, labels):
        state = InferenceState(table)
        _apply_random_labels(state, labels, labels.draw(st.integers(min_value=0, max_value=3)))
        informative = state.informative_ids()
        batched = state.prune_counts_all(informative)
        assert set(batched) == set(informative)
        for tuple_id in informative:
            assert batched[tuple_id] == state.prune_counts(tuple_id)
        # ... and the counts agree with full simulation, as in the seed.
        for tuple_id in informative[:4]:
            before = set(state.informative_ids())
            plus = set(state.simulate_label(tuple_id, Label.POSITIVE).informative_ids())
            minus = set(state.simulate_label(tuple_id, Label.NEGATIVE).informative_ids())
            assert batched[tuple_id] == (len(before - plus), len(before - minus))

    @SETTINGS
    @given(table=candidate_tables(), labels=st.data())
    def test_copy_is_independent_and_equivalent(self, table, labels):
        state = InferenceState(table)
        _apply_random_labels(state, labels, labels.draw(st.integers(min_value=0, max_value=3)))
        clone = state.copy()
        _assert_equivalent(clone)
        # Mutating the clone must not leak into the original.
        unlabeled = [tid for tid in table.tuple_ids if tid not in clone.labeled_ids()]
        if unlabeled:
            snapshot = state.statuses()
            try:
                clone.add_label(unlabeled[0], Label.NEGATIVE)
            except InconsistentLabelError:
                pass
            assert state.statuses() == snapshot
            _assert_equivalent(state)
