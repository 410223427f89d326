"""Property-based tests: a shared equality-type index is invisible to sessions.

Every session over one table uses the table's single
:class:`~repro.core.equality_types.EqualityTypeIndex`, so a session may start
on an index that earlier sessions already warmed up: its lazy per-type id
lists and per-tuple masks are filled in.  Those memos are pure functions of
the table, so the interaction trace must not depend on them.  Each example
runs one session on a warm shared index, with a save/resume at a random step,
and the same session on a fresh, uncached index (a second instance of the
same table), and requires the two ``(tuple_id, label)`` traces to be equal.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AtomUniverse, CandidateTable, GoalQueryOracle, JoinQuery, SessionService
from repro.datasets import synthetic
from repro.service import Converged, QuestionAsked

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: (mode, strategy, k) — guided under two strategies, top-k and
#: manual-with-pruning; the strategies are deterministic, so a resumed
#: session rebuilds the same one.
SESSION_KINDS = (
    ("guided", "lookahead-entropy", None),
    ("guided", "local-most-specific", None),
    ("top-k", None, 3),
    ("manual-with-pruning", None, None),
)


@st.composite
def table_factories(draw):
    """A function building new instances of one small table, flat or factorized."""
    if draw(st.booleans()):
        config = synthetic.SyntheticConfig(
            attributes_per_relation=2,
            tuples_per_relation=draw(st.integers(min_value=2, max_value=6)),
            domain_size=draw(st.integers(min_value=2, max_value=4)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
        return lambda: synthetic.generate_candidate_table(config)
    num_columns = draw(st.integers(min_value=2, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * num_columns),
            min_size=1,
            max_size=14,
        )
    )
    names = [f"c{i}" for i in range(num_columns)]
    return lambda: CandidateTable.from_rows(names, rows, name="flat")


def session_trace(service, table, oracle, kind, resume_at=None) -> list:
    """The ``(tuple_id, label)`` trace of one session, resumed once at ``resume_at``."""
    mode, strategy, k = kind
    options = {"strategy": strategy} if mode == "guided" else {"k": k} if mode == "top-k" else {}
    session_id = service.create(table, mode=mode, **options).session_id
    trace: list = []
    while True:
        if len(trace) == resume_at:
            document = service.save(session_id)
            service.close(session_id)
            session_id = service.resume(document).session_id
        event = service.next_question(session_id)
        if isinstance(event, Converged):
            return trace
        if isinstance(event, QuestionAsked):
            tuple_id = event.tuple_id
            label = oracle.label(table, tuple_id)
            service.answer(session_id, label)
        else:
            tuple_id = event.tuple_ids[0]
            label = oracle.label(table, tuple_id)
            service.answer(session_id, label, tuple_id=tuple_id)
        trace.append((tuple_id, label))


@given(
    make_table=table_factories(),
    goal_bits=st.integers(min_value=0, max_value=(1 << 12) - 1),
    kind=st.sampled_from(SESSION_KINDS),
    warm_kind=st.sampled_from(SESSION_KINDS),
    fill_all=st.booleans(),
    resume_at=st.integers(min_value=0, max_value=6),
)
@SETTINGS
def test_warm_shared_index_gives_the_trace_of_a_fresh_one(
    make_table, goal_bits, kind, warm_kind, fill_all, resume_at
):
    warm_table = make_table()
    universe = AtomUniverse.shared(warm_table)
    goal = JoinQuery.from_mask(universe, goal_bits & universe.full_mask)
    oracle = GoalQueryOracle(goal)

    # Warm the table's index: one session runs to convergence on it, and
    # optionally every lazy memo is filled as well.
    service = SessionService()
    service.register_table(warm_table)
    session_trace(service, warm_table, oracle, warm_kind)
    index = service._sessions[service.session_ids()[0]].stepper.state.type_index
    if fill_all:
        index.masks  # noqa: B018 - fills the per-tuple memo
        for mask in index.distinct_masks:
            index.tuples_with_mask(mask)
    warm = session_trace(service, warm_table, oracle, kind, resume_at=resume_at)
    assert all(
        managed.stepper.state.type_index is index for managed in service._sessions.values()
    )

    fresh_table = make_table()
    assert fresh_table.fingerprint() == warm_table.fingerprint()
    fresh_service = SessionService()
    fresh = session_trace(fresh_service, fresh_table, oracle, kind)
    fresh_index = fresh_service._sessions[fresh_service.session_ids()[0]].stepper.state.type_index
    assert fresh_index is not index

    assert warm == fresh
