"""Tests for saving and resuming labeling sessions."""

from __future__ import annotations

import json

import pytest

from repro import GoalQueryOracle, InferenceState, Label
from repro.core.equality_types import EqualityTypeIndex
from repro.datasets import flights_hotels
from repro.sessions.persistence import (
    SessionPersistenceError,
    deserialize_state,
    document_strict,
    load_session,
    resume_guided_session,
    save_session,
    serialize_state,
    session_options,
    table_fingerprint,
)

tid = flights_hotels.paper_tuple_id


class TestFingerprint:
    def test_same_table_same_fingerprint(self, figure1_table):
        assert table_fingerprint(figure1_table) == table_fingerprint(
            flights_hotels.figure1_table()
        )

    def test_different_rows_different_fingerprint(self, figure1_table, two_column_table):
        assert table_fingerprint(figure1_table) != table_fingerprint(two_column_table)


class TestSaveAndLoad:
    def test_roundtrip_preserves_labels_and_convergence(self, figure1_table, tmp_path):
        state = InferenceState(figure1_table)
        state.add_label(tid(3), Label.POSITIVE)
        state.add_label(tid(8), Label.NEGATIVE)
        path = tmp_path / "session.json"
        save_session(state, path)

        restored = load_session(path, flights_hotels.figure1_table())
        assert restored.examples.as_dict() == state.examples.as_dict()
        assert restored.is_converged() == state.is_converged()
        assert restored.inferred_query() == state.inferred_query()

    def test_serialized_document_is_self_describing(self, figure1_table):
        state = InferenceState(figure1_table)
        state.add_label(tid(3), Label.POSITIVE)
        payload = serialize_state(state)
        assert payload["format"] == "jim-session"
        assert payload["num_candidates"] == 12
        assert payload["labels"] == {str(tid(3)): "+"}
        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_wrong_table_is_rejected(self, figure1_table, two_column_table, tmp_path):
        state = InferenceState(figure1_table)
        state.add_label(tid(3), Label.POSITIVE)
        path = tmp_path / "session.json"
        save_session(state, path)
        with pytest.raises(SessionPersistenceError):
            load_session(path, two_column_table)

    def test_fingerprint_check_can_be_disabled(self, figure1_table, tmp_path):
        state = InferenceState(figure1_table)
        state.add_label(tid(3), Label.POSITIVE)
        path = tmp_path / "session.json"
        save_session(state, path)
        reordered = flights_hotels.figure1_table().subset(list(range(12)))
        restored = load_session(path, reordered, verify_fingerprint=False)
        assert len(restored.examples) == 1

    def test_malformed_documents_rejected(self, figure1_table, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SessionPersistenceError):
            load_session(path, figure1_table)
        path.write_text(json.dumps(["a", "list"]), encoding="utf-8")
        with pytest.raises(SessionPersistenceError):
            load_session(path, figure1_table)
        path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
        with pytest.raises(SessionPersistenceError):
            load_session(path, figure1_table)

    @pytest.mark.parametrize("document", [[], ["a", "list"], "x", 3, None, True])
    def test_non_object_documents_rejected(self, figure1_table, document):
        for read in (
            lambda: deserialize_state(document, figure1_table),
            lambda: deserialize_state(document, figure1_table, verify_fingerprint=False),
            lambda: document_strict(document),
            lambda: session_options(document),
        ):
            with pytest.raises(SessionPersistenceError, match="must be a JSON object"):
                read()

    def test_malformed_labels_fail_before_the_state_is_built(self, figure1_table, monkeypatch):
        built = []
        monkeypatch.setattr(
            EqualityTypeIndex, "__init__", lambda self, universe: built.append(universe)
        )
        payload = {
            "format": "jim-session",
            "version": 3,
            "table_fingerprint": table_fingerprint(figure1_table),
            "labels": ["0", "+"],
        }
        with pytest.raises(SessionPersistenceError, match="'labels' must be an object"):
            deserialize_state(payload, figure1_table)
        assert built == []

    def test_unsupported_version_rejected(self, figure1_table, tmp_path):
        state = InferenceState(figure1_table)
        payload = serialize_state(state)
        payload["version"] = 99
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SessionPersistenceError):
            load_session(path, figure1_table)

    def test_bad_tuple_id_rejected(self, figure1_table, tmp_path):
        state = InferenceState(figure1_table)
        payload = serialize_state(state)
        payload["labels"] = {"not-a-number": "+"}
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SessionPersistenceError):
            load_session(path, figure1_table)


class TestIntegrityCheck:
    """The stored convergence summary is verified against the replayed labels."""

    def _saved_payload(self, figure1_table):
        state = InferenceState(figure1_table)
        state.add_label(tid(3), Label.POSITIVE)
        state.add_label(tid(8), Label.NEGATIVE)
        return serialize_state(state)

    def test_tampered_canonical_query_rejected(self, figure1_table, tmp_path):
        payload = self._saved_payload(figure1_table)
        payload["canonical_query"] = [["Airline", "City"]]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SessionPersistenceError, match="canonical query"):
            load_session(path, figure1_table)

    def test_tampered_convergence_flag_rejected(self, figure1_table, tmp_path):
        payload = self._saved_payload(figure1_table)
        payload["converged"] = not payload["converged"]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SessionPersistenceError, match="converged"):
            load_session(path, figure1_table)

    def test_malformed_canonical_query_rejected(self, figure1_table, tmp_path):
        payload = self._saved_payload(figure1_table)
        payload["canonical_query"] = "To=City"
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SessionPersistenceError, match="canonical_query"):
            load_session(path, figure1_table)

    def test_integrity_check_can_be_disabled(self, figure1_table, tmp_path):
        payload = self._saved_payload(figure1_table)
        payload["canonical_query"] = [["Airline", "City"]]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        state = load_session(path, figure1_table, verify_integrity=False)
        assert len(state.examples) == 2

    def test_v1_documents_still_load_and_are_verified(self, figure1_table, tmp_path):
        # A v1 document: same fields, no "session" object or "strict" flag,
        # version 1.
        payload = self._saved_payload(figure1_table)
        payload["version"] = 1
        payload.pop("session", None)
        payload.pop("strict", None)
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        state = load_session(path, figure1_table)
        assert len(state.examples) == 2
        # Pre-v3 documents read as strict — the historical behaviour.
        assert state.strict is True
        from repro.sessions.persistence import session_options

        assert session_options(payload) == {
            "mode": "guided",
            "strategy": None,
            "k": None,
            "strict": True,
        }

    def test_malformed_session_metadata_rejected(self, figure1_table):
        from repro.sessions.persistence import session_options

        with pytest.raises(SessionPersistenceError, match="session.strategy"):
            session_options({"session": {"mode": "guided", "strategy": 5}})
        with pytest.raises(SessionPersistenceError, match="session.k"):
            session_options({"session": {"mode": "top-k", "k": "three"}})
        with pytest.raises(SessionPersistenceError, match="session.mode"):
            session_options({"session": {"mode": 7}})
        with pytest.raises(SessionPersistenceError, match="must be an object"):
            session_options({"session": ["guided"]})

    def test_v3_documents_record_the_session_kind_and_strictness(
        self, figure1_table, tmp_path
    ):
        state = InferenceState(figure1_table, strict=False)
        path = tmp_path / "session.json"
        save_session(state, path, mode="top-k", strategy=None, k=3)
        from repro.sessions.persistence import read_session_document, session_options

        document = read_session_document(path)
        assert document["version"] == 3
        assert document["strict"] is False
        assert session_options(document) == {
            "mode": "top-k",
            "strategy": None,
            "k": 3,
            "strict": False,
        }

    def test_v2_documents_still_load_as_strict(self, figure1_table, tmp_path):
        # A v2 document: session metadata but no "strict" flag, version 2.
        state = InferenceState(figure1_table)
        payload = serialize_state(state, mode="guided", strategy="lookahead-entropy")
        payload["version"] = 2
        payload.pop("strict", None)
        path = tmp_path / "session.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        restored = load_session(path, figure1_table)
        assert restored.strict is True
        from repro.sessions.persistence import session_options

        assert session_options(payload)["strict"] is True
        assert session_options(payload)["strategy"] == "lookahead-entropy"

    def test_malformed_strict_flag_rejected(self, figure1_table):
        from repro.sessions.persistence import document_strict

        with pytest.raises(SessionPersistenceError, match="strict"):
            document_strict({"strict": "yes"})

    def test_lenient_state_roundtrips_lenient(self, figure1_table, tmp_path):
        state = InferenceState(figure1_table, strict=False)
        state.add_label(tid(3), Label.POSITIVE)
        path = tmp_path / "session.json"
        save_session(state, path)
        restored = load_session(path, flights_hotels.figure1_table())
        assert restored.strict is False
        # An explicit override still wins.
        assert load_session(path, flights_hotels.figure1_table(), strict=True).strict is True


class TestResume:
    def test_resumed_guided_session_finishes_the_inference(self, figure1_table, query_q2, tmp_path):
        # First sitting: two answers, then the session is saved.
        state = InferenceState(figure1_table)
        oracle = GoalQueryOracle(query_q2)
        state.add_label(tid(3), oracle.label(figure1_table, tid(3)))
        state.add_label(tid(8), oracle.label(figure1_table, tid(8)))
        path = tmp_path / "session.json"
        save_session(state, path)

        # Second sitting: resume and run to convergence.
        session = resume_guided_session(path, flights_hotels.figure1_table(), strategy="lookahead-entropy")
        already_labeled = len(session.state.examples)
        session.run(GoalQueryOracle(query_q2))
        assert session.is_converged()
        assert session.inferred_query().instance_equivalent(query_q2, figure1_table)
        # The resumed session does not re-ask the stored labels.
        assert already_labeled == 2
        assert all(
            interaction.tuple_id not in (tid(3), tid(8)) for interaction in session.interactions
        )

    def test_resume_uses_the_recorded_strategy_by_default(self, figure1_table, tmp_path):
        state = InferenceState(figure1_table)
        path = tmp_path / "session.json"
        save_session(state, path, mode="guided", strategy="local-lexicographic")
        session = resume_guided_session(path, flights_hotels.figure1_table())
        assert session.strategy.name == "local-lexicographic"
        # An explicit strategy still wins.
        session = resume_guided_session(
            path, flights_hotels.figure1_table(), strategy="random"
        )
        assert session.strategy.name == "random"
