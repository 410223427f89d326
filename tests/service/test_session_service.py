"""Tests for the thread-safe multi-session `SessionService`."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro import GoalQueryOracle, JoinInferenceEngine, SessionService
from repro.core.equality_types import EqualityTypeIndex
from repro.datasets import flights_hotels, synthetic
from repro.exceptions import ReproError, StrategyError
from repro.service.protocol import Converged, QuestionAsked
from repro.service.service import SessionServiceError
from repro.service.wire import execute_command
from repro.sessions.persistence import SessionPersistenceError, table_fingerprint


def drive_to_convergence(service: SessionService, session_id: str, table, goal) -> None:
    oracle = GoalQueryOracle(goal)
    while True:
        event = service.next_question(session_id)
        if isinstance(event, Converged):
            return
        service.answer(session_id, oracle.label(table, event.tuple_id))


class TestTableRegistry:
    def test_register_is_idempotent_and_fingerprint_keyed(self, figure1_table):
        service = SessionService()
        fp1 = service.register_table(figure1_table)
        fp2 = service.register_table(flights_hotels.figure1_table())
        assert fp1 == fp2 == table_fingerprint(figure1_table)
        assert service.tables() == {fp1: figure1_table.name}

    def test_create_by_fingerprint(self, figure1_table):
        service = SessionService()
        fingerprint = service.register_table(figure1_table)
        descriptor = service.create(fingerprint, mode="guided")
        assert descriptor.table_fingerprint == fingerprint
        assert descriptor.num_candidates == len(figure1_table)

    def test_unknown_fingerprint_rejected(self):
        service = SessionService()
        with pytest.raises(SessionServiceError, match="no table registered"):
            service.create("deadbeef")


class TestLifecycle:
    def test_create_describe_answer_close(self, figure1_table, query_q2):
        service = SessionService()
        descriptor = service.create(figure1_table, mode="guided", strategy="lookahead-entropy")
        sid = descriptor.session_id
        assert descriptor.mode == "guided"
        assert descriptor.strategy == "lookahead-entropy"
        assert not descriptor.converged

        question = service.next_question(sid)
        assert isinstance(question, QuestionAsked)
        oracle = GoalQueryOracle(query_q2)
        applied = service.answer(sid, oracle.label(figure1_table, question.tuple_id))
        assert applied.step == 1
        assert service.describe(sid).num_labels == 1

        final = service.close(sid)
        assert final.num_labels == 1
        with pytest.raises(SessionServiceError, match="unknown session id"):
            service.describe(sid)

    def test_descriptor_dict_is_json_shaped(self, figure1_table):
        import json

        service = SessionService()
        descriptor = service.create(figure1_table, mode="top-k", k=4)
        payload = descriptor.as_dict()
        json.dumps(payload)
        assert payload["mode"] == "top-k"
        assert payload["k"] == 4

    def test_mode_options_validated_at_create(self, figure1_table):
        service = SessionService()
        with pytest.raises(ValueError, match="guided"):
            service.create(figure1_table, mode="guided", k=3)
        with pytest.raises(StrategyError):
            service.create(figure1_table, mode="top-k", k=-1)
        assert len(service) == 0

    def test_descriptor_reports_strictness(self, figure1_table):
        service = SessionService()
        strict = service.create(figure1_table)
        lenient = service.create(figure1_table, strict=False)
        assert strict.strict is True
        assert lenient.strict is False
        assert lenient.as_dict()["strict"] is False

    def test_failed_create_registers_neither_session_nor_table(self, figure1_table):
        service = SessionService()
        with pytest.raises(StrategyError, match="unknown strategy"):
            service.create(figure1_table, strategy="no-such-strategy")
        assert len(service) == 0
        assert service.tables() == {}

    def test_failed_resume_registers_neither_session_nor_table(self, figure1_table):
        service = SessionService()
        document = service.save(service.create(figure1_table).session_id)
        document["labels"] = {"not-a-number": "+"}  # corrupt the document

        fresh = SessionService()
        from repro.sessions.persistence import SessionPersistenceError

        with pytest.raises(SessionPersistenceError):
            fresh.resume(document, table=flights_hotels.figure1_table())
        assert len(fresh) == 0
        assert fresh.tables() == {}

    def test_explicit_session_id_and_collision(self, figure1_table):
        service = SessionService()
        descriptor = service.create(figure1_table, session_id="feed" * 8)
        assert descriptor.session_id == "feed" * 8
        with pytest.raises(SessionServiceError, match="already in use"):
            service.create(figure1_table, session_id="feed" * 8)
        document = service.save(descriptor.session_id)
        with pytest.raises(SessionServiceError, match="already in use"):
            service.resume(document, session_id="feed" * 8)
        assert len(service) == 1

    def test_answer_many_on_top_k_session(self, figure1_table, query_q2):
        service = SessionService()
        sid = service.create(figure1_table, mode="top-k", k=3).session_id
        oracle = GoalQueryOracle(query_q2)
        while not service.describe(sid).converged:
            batch = service.next_question(sid).tuple_ids
            service.answer_many(
                sid, [(tid, oracle.label(figure1_table, tid)) for tid in batch]
            )
        event = service.next_question(sid)
        assert event.as_join_query().instance_equivalent(query_q2, figure1_table)


class TestErrorPaths:
    def test_answer_after_close_raises(self, figure1_table):
        service = SessionService()
        sid = service.create(figure1_table).session_id
        service.close(sid)
        with pytest.raises(SessionServiceError, match="unknown session id"):
            service.answer(sid, "+")
        with pytest.raises(SessionServiceError, match="unknown session id"):
            service.next_question(sid)

    def test_double_close_raises(self, figure1_table):
        service = SessionService()
        sid = service.create(figure1_table).session_id
        service.close(sid)
        with pytest.raises(SessionServiceError, match="unknown session id"):
            service.close(sid)

    def test_resume_with_unknown_fingerprint_reference_raises(self, figure1_table):
        service = SessionService()
        document = service.save(service.create(figure1_table).session_id)
        fresh = SessionService()
        # Explicit unknown fingerprint reference (not just an empty registry).
        with pytest.raises(SessionServiceError, match="no table registered"):
            fresh.resume(document, table="deadbeef")

    def test_resume_document_without_fingerprint_raises(self, figure1_table):
        service = SessionService()
        document = service.save(service.create(figure1_table).session_id)
        document.pop("table_fingerprint")
        with pytest.raises(SessionServiceError, match="no table fingerprint"):
            SessionService().resume(document)

    def test_save_after_close_raises(self, figure1_table):
        service = SessionService()
        sid = service.create(figure1_table).session_id
        service.close(sid)
        with pytest.raises(SessionServiceError, match="unknown session id"):
            service.save(sid)

    @pytest.mark.parametrize("document", [[], "x", 7, None])
    def test_non_object_document_is_a_persistence_error(self, figure1_table, document):
        service = SessionService()
        fingerprint = service.register_table(figure1_table)
        for table in (None, fingerprint, figure1_table):
            with pytest.raises(SessionPersistenceError, match="must be a JSON object"):
                service.resume(document, table=table)
        assert len(service) == 0

    def test_non_object_document_over_the_wire_is_a_repro_error(self, figure1_table):
        service = SessionService()
        fingerprint = service.register_table(figure1_table)
        request = {
            "cmd": "resume",
            "document": [],
            "fingerprint": fingerprint,
            "session_id": "s1",
        }
        with pytest.raises(ReproError) as caught:
            execute_command(service, request)
        assert isinstance(caught.value, SessionPersistenceError)
        assert len(service) == 0


class TestSaveResume:
    def test_mid_session_save_resume_matches_uninterrupted_run(
        self, figure1_table, query_q2
    ):
        # Uninterrupted reference run.
        reference = JoinInferenceEngine(figure1_table, strategy="lookahead-entropy").run(
            GoalQueryOracle(query_q2)
        )

        # Interrupted run: two answers, save, resume in a FRESH service.
        service = SessionService()
        sid = service.create(
            figure1_table, mode="guided", strategy="lookahead-entropy"
        ).session_id
        oracle = GoalQueryOracle(query_q2)
        for _ in range(2):
            question = service.next_question(sid)
            service.answer(sid, oracle.label(figure1_table, question.tuple_id))
        document = service.save(sid)
        service.close(sid)

        fresh = SessionService()
        fresh.register_table(flights_hotels.figure1_table())
        resumed = fresh.resume(document)
        assert resumed.mode == "guided"
        assert resumed.strategy == "lookahead-entropy"
        assert resumed.num_labels == 2
        # Protocol steps keep counting from the restored labels.
        assert fresh.next_question(resumed.session_id).step == 3
        drive_to_convergence(fresh, resumed.session_id, figure1_table, query_q2)
        final = fresh.next_question(resumed.session_id)
        assert final.as_join_query().instance_equivalent(reference.query, figure1_table)
        assert final.step == fresh.describe(resumed.session_id).num_labels

    def test_resume_restores_the_right_session_kind(self, figure1_table):
        service = SessionService()
        sid = service.create(figure1_table, mode="top-k", k=2).session_id
        document = service.save(sid)
        assert document["session"] == {"mode": "top-k", "strategy": None, "k": 2}

        fresh = SessionService()
        resumed = fresh.resume(document, table=flights_hotels.figure1_table())
        assert resumed.mode == "top-k"
        assert resumed.k == 2
        assert len(fresh.next_question(resumed.session_id).tuple_ids) == 2

    def test_resume_without_registered_table_fails_clearly(self, figure1_table):
        service = SessionService()
        sid = service.create(figure1_table).session_id
        document = service.save(sid)
        fresh = SessionService()
        with pytest.raises(SessionServiceError, match="no table registered"):
            fresh.resume(document)

    def test_lenient_session_resumes_lenient(self, two_column_table):
        # tuple 0 = (1,1) is certain-positive on the tiny table; labeling
        # tuple 2 = (2,2) "-" after a "+" on tuple 0 contradicts.
        service = SessionService()
        descriptor = service.create(two_column_table, mode="manual", strict=False)
        sid = descriptor.session_id
        service.answer(sid, "+", tuple_id=0)
        saved_before = service.save(sid)
        contradiction = service.answer(sid, "-", tuple_id=2)  # tolerated
        saved_after = service.save(sid)

        fresh = SessionService()
        resumed = fresh.resume(saved_before, table=two_column_table)
        assert resumed.strict is False
        # The resumed session accepts the contradiction exactly as the
        # original did — identical event, no InconsistentLabelError.
        assert fresh.answer(resumed.session_id, "-", tuple_id=2) == contradiction

        # A document already containing the contradiction replays cleanly.
        replayed = fresh.resume(saved_after, table=two_column_table)
        assert replayed.strict is False
        assert replayed.num_labels == 2

    def test_strict_session_still_rejects_contradictions_after_resume(
        self, two_column_table
    ):
        from repro.exceptions import InconsistentLabelError

        service = SessionService()
        sid = service.create(two_column_table, mode="manual").session_id
        service.answer(sid, "+", tuple_id=0)
        document = service.save(sid)
        assert document["strict"] is True
        resumed = service.resume(document, table=two_column_table)
        assert resumed.strict is True
        with pytest.raises(InconsistentLabelError):
            service.answer(resumed.session_id, "-", tuple_id=2)


def _state_of(service: SessionService, session_id: str):
    """The inference state behind a live session (white-box access)."""
    return service._sessions[session_id].stepper.state


def _lazy_table():
    return synthetic.generate_candidate_table(
        synthetic.SyntheticConfig(tuples_per_relation=12, domain_size=4, seed=3)
    )


class TestSharedTypeIndex:
    def test_creates_and_resume_share_one_index_built_once(self, monkeypatch):
        table = _lazy_table()
        builds = []
        original = EqualityTypeIndex.__init__

        def counting_init(self, universe):
            builds.append(universe)
            original(self, universe)

        monkeypatch.setattr(EqualityTypeIndex, "__init__", counting_init)
        service = SessionService()
        fingerprint = service.register_table(table)
        assert builds == []  # registration stays lazy
        first = service.create(fingerprint, mode="guided").session_id
        second = service.create(fingerprint, mode="top-k", k=3).session_id
        service.answer(first, "no", tuple_id=0)
        resumed = service.resume(service.save(first)).session_id
        states = [_state_of(service, sid) for sid in (first, second, resumed)]
        assert len(builds) == 1
        assert all(state.type_index is states[0].type_index for state in states)
        assert all(state.universe is state.space.universe for state in states)

    def test_closed_sessions_and_dropped_service_leave_the_table_collectable(self):
        table = _lazy_table()
        service = SessionService()
        fingerprint = service.register_table(table)
        goal = synthetic.random_goal_query(table, num_atoms=1, seed=5)
        first = service.create(fingerprint, mode="guided").session_id
        drive_to_convergence(service, first, table, goal)
        resumed = service.resume(service.save(first)).session_id
        second = service.create(fingerprint, mode="manual").session_id
        for session_id in (first, resumed, second):
            service.close(session_id)
        reference = weakref.ref(table)
        del table, service, goal
        gc.collect()
        assert reference() is None


class TestConcurrency:
    def test_concurrent_first_creates_on_a_fresh_table_agree(self):
        service = SessionService()
        fingerprint = service.register_table(_lazy_table())
        threads_count = 8
        barrier = threading.Barrier(threads_count)
        results: list[tuple[str, int]] = []
        errors: list[BaseException] = []

        def first_question() -> None:
            try:
                barrier.wait(timeout=30)
                session_id = service.create(fingerprint, mode="guided").session_id
                event = service.next_question(session_id)
                assert isinstance(event, QuestionAsked)
                results.append((session_id, event.tuple_id))
            except BaseException as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=first_question, daemon=True) for _ in range(threads_count)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the cold index builds finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == threads_count
        assert len({tuple_id for _, tuple_id in results}) == 1
        indexes = {id(_state_of(service, session_id).type_index) for session_id, _ in results}
        assert len(indexes) == 1

    def test_distinct_sessions_answered_concurrently(self):
        # Several labelers, each with their own session (and even their own
        # table), all stepping through one shared service from worker threads.
        service = SessionService()
        tables = {
            "flights": flights_hotels.figure1_table(),
            "synthetic": synthetic.generate_candidate_table(
                synthetic.SyntheticConfig(tuples_per_relation=8, domain_size=3, seed=4)
            ),
        }
        goals = {
            "flights": flights_hotels.query_q2(),
            "synthetic": synthetic.random_goal_query(tables["synthetic"], num_atoms=2, seed=9),
        }
        jobs = []
        for worker in range(8):
            kind = "flights" if worker % 2 == 0 else "synthetic"
            descriptor = service.create(tables[kind], mode="guided", strategy="lookahead-entropy")
            jobs.append((descriptor.session_id, kind))

        errors: list[BaseException] = []
        barrier = threading.Barrier(len(jobs))

        def labeler(session_id: str, kind: str) -> None:
            try:
                barrier.wait(timeout=30)
                drive_to_convergence(service, session_id, tables[kind], goals[kind])
            except BaseException as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=labeler, args=job, daemon=True) for job in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

        for session_id, kind in jobs:
            descriptor = service.describe(session_id)
            assert descriptor.converged
            event = service.next_question(session_id)
            assert event.as_join_query().instance_equivalent(goals[kind], tables[kind])
