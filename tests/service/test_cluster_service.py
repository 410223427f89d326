"""Tests for the multi-process sharded service (`repro.service.cluster`).

Every cluster starts an interpreter (its worker template), so one 2-worker
cluster is shared by the whole module (sessions are cheap; the cluster is
not).  Async scenarios use the plain ``asyncio.run`` helper of the
async-service suite.
"""

from __future__ import annotations

import asyncio
import datetime
import os
import select
import signal
import socket
import threading
import time

import pytest

from repro import CandidateTable, GoalQueryOracle, SessionService
from repro.datasets import flights_hotels
from repro.exceptions import InconsistentLabelError, ReproError, StrategyError
from repro.service import AsyncSessionService, Converged, QuestionAsked, event_to_wire
from repro.service.cluster import (
    ClusterServiceError,
    ClusterSessionService,
    ClusterWorkerError,
    table_from_wire,
    table_to_wire,
)
from repro.service.protocol import ProtocolError
from repro.service.service import SessionServiceError
from repro.service.wire import error_reply, execute_command, rebuild_error
from repro.sessions.persistence import table_fingerprint


@pytest.fixture(scope="module")
def cluster():
    with ClusterSessionService(num_workers=2) as service:
        yield service


@pytest.fixture
def thread_cluster():
    with ClusterSessionService(num_workers=2, backend="thread") as service:
        yield service


@pytest.fixture(scope="module")
def flights_fingerprint(cluster) -> str:
    return cluster.register_table(flights_hotels.figure1_table())


def tiny_table() -> CandidateTable:
    return CandidateTable.from_rows(
        ["a", "b"], [(1, 1), (1, 2), (2, 2), (3, 4)], name="tiny"
    )


def drive(service, session_id: str, table, goal) -> list[dict]:
    oracle = GoalQueryOracle(goal)
    events: list[dict] = []
    while True:
        event = service.next_question(session_id)
        events.append(event_to_wire(event))
        if isinstance(event, Converged):
            return events
        if isinstance(event, QuestionAsked):
            applied = service.answer(session_id, oracle.label(table, event.tuple_id))
            events.append(event_to_wire(applied))
        else:
            answers = [(t, oracle.label(table, t)) for t in event.tuple_ids]
            events.extend(
                event_to_wire(applied)
                for applied in service.answer_many(session_id, answers)
            )


class TestTableWire:
    def test_roundtrip_preserves_fingerprint_types_and_provenance(self, figure1_table):
        rebuilt = table_from_wire(table_to_wire(figure1_table))
        assert table_fingerprint(rebuilt) == table_fingerprint(figure1_table)
        assert rebuilt.attribute_names == figure1_table.attribute_names
        assert rebuilt.source_relations() == figure1_table.source_relations()
        assert [a.data_type for a in rebuilt.attributes] == [
            a.data_type for a in figure1_table.attributes
        ]
        assert tuple(rebuilt.rows) == tuple(figure1_table.rows)

    def test_date_cells_are_tagged_and_restored(self):
        table = CandidateTable.from_rows(
            ["day", "stamp"],
            [
                (datetime.date(2014, 3, 1), datetime.datetime(2014, 3, 1, 12, 30)),
                (datetime.date(2014, 3, 2), datetime.datetime(2014, 3, 2, 8, 0)),
            ],
            name="dated",
        )
        import json

        wire = table_to_wire(table)
        json.dumps(wire)  # must be JSON-serialisable as-is
        rebuilt = table_from_wire(json.loads(json.dumps(wire)))
        assert tuple(rebuilt.rows) == tuple(table.rows)
        assert table_fingerprint(rebuilt) == table_fingerprint(table)

    def test_unserialisable_cells_rejected(self):
        from repro.relational.candidate import CandidateAttribute

        table = CandidateTable([CandidateAttribute("a")], [(object(),)], name="bad")
        with pytest.raises(ClusterServiceError, match="JSON-representable"):
            table_to_wire(table)


#: Per command, a field it needs: dropping it makes the command malformed.
_REQUIRED_FIELDS = [
    ("register_table", "table"),
    ("create", "fingerprint"),
    ("create", "mode"),
    ("create", "session_id"),
    ("resume", "fingerprint"),
    ("resume", "document"),
    ("resume", "session_id"),
    ("describe", "session_id"),
    ("close", "session_id"),
    ("next_question", "session_id"),
    ("answer", "session_id"),
    ("answer", "label"),
    ("answer_many", "session_id"),
    ("answer_many", "answers"),
    ("save", "session_id"),
]


class TestWorkerCommands:
    """The worker-side dispatcher, called directly on an in-memory service."""

    @staticmethod
    def _requests(service: SessionService) -> dict[str, dict]:
        table = tiny_table()
        fingerprint = service.register_table(table)
        session_id = service.create(fingerprint, session_id="ab12").session_id
        return {
            "register_table": {"cmd": "register_table", "table": table_to_wire(table)},
            "create": {
                "cmd": "create", "fingerprint": fingerprint, "mode": "guided",
                "session_id": "cd34",
            },
            "resume": {
                "cmd": "resume", "fingerprint": fingerprint,
                "document": service.save(session_id), "session_id": "ef56",
            },
            "describe": {"cmd": "describe", "session_id": session_id},
            "close": {"cmd": "close", "session_id": session_id},
            "next_question": {"cmd": "next_question", "session_id": session_id},
            "answer": {"cmd": "answer", "session_id": session_id, "label": "yes"},
            "answer_many": {
                "cmd": "answer_many", "session_id": session_id, "answers": [[0, "yes"]],
            },
            "save": {"cmd": "save", "session_id": session_id},
        }

    def test_well_formed_commands_run(self):
        service = SessionService()
        requests = self._requests(service)
        for command in ("create", "resume", "describe", "save"):
            execute_command(service, requests[command])
        assert set(service.session_ids()) == {"ab12", "cd34", "ef56"}

    @pytest.mark.parametrize(("command", "field"), _REQUIRED_FIELDS)
    def test_missing_field_is_a_protocol_error(self, command, field):
        service = SessionService()
        request = dict(self._requests(service)[command])
        del request[field]
        with pytest.raises(ProtocolError, match=f"lacks the field '{field}'"):
            execute_command(service, request)

    @pytest.mark.parametrize("request_", [{}, {"session_id": "ab12"}, [], "ping", None])
    def test_request_without_a_command_is_a_protocol_error(self, request_):
        with pytest.raises(ProtocolError):
            execute_command(SessionService(), request_)

    def test_protocol_error_crosses_the_wire_as_itself(self):
        with pytest.raises(ProtocolError) as caught:
            execute_command(SessionService(), {"cmd": "describe"})
        rebuilt = rebuild_error(error_reply(caught.value))
        assert type(rebuilt) is ProtocolError
        assert str(rebuilt) == str(caught.value)


class TestLifecycle:
    def test_create_describe_answer_close(self, cluster, flights_fingerprint, query_q2):
        table = flights_hotels.figure1_table()
        descriptor = cluster.create(
            flights_fingerprint, mode="guided", strategy="lookahead-entropy"
        )
        sid = descriptor.session_id
        assert descriptor.mode == "guided"
        assert descriptor.strategy == "lookahead-entropy"
        assert descriptor.strict is True
        assert descriptor.num_candidates == 12

        question = cluster.next_question(sid)
        assert isinstance(question, QuestionAsked)
        oracle = GoalQueryOracle(query_q2)
        applied = cluster.answer(sid, oracle.label(table, question.tuple_id))
        assert applied.step == 1
        assert cluster.describe(sid).num_labels == 1

        final = cluster.close(sid)
        assert final.num_labels == 1
        with pytest.raises(SessionServiceError, match="unknown session id"):
            cluster.describe(sid)

    def test_trace_equivalence_with_single_process_service(
        self, cluster, flights_fingerprint, query_q2
    ):
        table = flights_hotels.figure1_table()
        for kwargs in (
            {"strategy": "lookahead-entropy"},
            {"mode": "top-k", "k": 3},
            {"mode": "manual-with-pruning"},
        ):
            sync = SessionService()
            reference = drive(
                sync, sync.create(table, **kwargs).session_id, table, query_q2
            )
            descriptor = cluster.create(flights_fingerprint, **kwargs)
            events = drive(cluster, descriptor.session_id, table, query_q2)
            cluster.close(descriptor.session_id)
            assert events == reference

    def test_consistent_routing_by_session_id(self, cluster, flights_fingerprint):
        # Explicit hex ids pin the shard: int(id, 16) % num_workers.
        ids = [f"{shard:032x}" for shard in range(4)]
        for session_id in ids:
            created = cluster.create(flights_fingerprint, session_id=session_id)
            assert created.session_id == session_id
        live = cluster.session_ids()
        assert set(ids) <= set(live)
        # Every command routes back to the worker that holds the session.
        for session_id in ids:
            assert cluster.describe(session_id).session_id == session_id
        for session_id in ids:
            cluster.close(session_id)
        assert not set(ids) & set(cluster.session_ids())

    def test_duplicate_session_id_rejected(self, cluster, flights_fingerprint):
        session_id = "ab" * 16
        cluster.create(flights_fingerprint, session_id=session_id)
        with pytest.raises(SessionServiceError, match="already in use"):
            cluster.create(flights_fingerprint, session_id=session_id)
        cluster.close(session_id)

    def test_register_table_is_idempotent(self, cluster, flights_fingerprint):
        again = cluster.register_table(flights_hotels.figure1_table())
        assert again == flights_fingerprint
        assert cluster.tables()[again] == "flight_hotel_packages"
        assert len(cluster.table(again)) == 12


def parent_pid(pid: int) -> int:
    """The parent of a live process, from ``/proc/<pid>/stat`` (Linux)."""
    with open(f"/proc/{pid}/stat") as stat:
        return int(stat.read().rpartition(")")[2].split()[1])


def pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc (Linux)")
class TestWorkerTemplate:
    """Process workers are forks of one template process per cluster."""

    def test_every_worker_is_a_child_of_the_template(self, cluster):
        parents = {parent_pid(state["pid"]) for state in cluster.worker_states()}
        assert len(parents) == 1
        (template,) = parents
        assert template != os.getpid()
        assert parent_pid(template) == os.getpid()

    def test_killed_worker_reads_dead_and_respawns_from_the_template(self):
        with ClusterSessionService(num_workers=2, heartbeat_interval=None) as cluster:
            fingerprint = cluster.register_table(tiny_table())
            killed = cluster.worker_states()[0]["pid"]
            template = parent_pid(killed)
            assert template != os.getpid()
            cluster.kill_worker(0)
            # The template reaps the worker, so it never lingers as a
            # zombie that reads as alive.
            deadline = time.monotonic() + 5.0
            while cluster.worker_states()[0]["alive"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cluster.worker_states()[0]["alive"] is False
            assert not pid_exists(killed)
            # The next command on the shard respawns the worker by a fork of
            # the same template.
            cluster.create(fingerprint, session_id="10")
            state = cluster.worker_states()[0]
            assert state["generation"] == 1 and state["alive"]
            assert state["pid"] != killed
            assert parent_pid(state["pid"]) == template

    def test_respawns_pass_every_descriptor_to_one_owner(self):
        # Each respawn makes a socketpair, passes one end to the template
        # and keeps the other: an end left open on any path would show up as
        # a descriptor that outlives its worker in one of the two processes.
        with ClusterSessionService(num_workers=2, heartbeat_interval=None) as cluster:
            fingerprint = cluster.register_table(tiny_table())
            cluster.create(fingerprint, session_id="10")  # routed to worker 0
            cluster.next_question("10")
            cluster.answer("10", "+")
            template = parent_pid(cluster.worker_states()[0]["pid"])
            for slot in cluster._workers:
                with socket.socket(fileno=os.dup(slot.conn.fileno())) as sock:
                    assert sock.family == socket.AF_UNIX
            supervisor_fds = len(os.listdir("/proc/self/fd"))
            template_fds = len(os.listdir(f"/proc/{template}/fd"))
            for cycle in range(1, 6):
                cluster.kill_worker(0)
                assert cluster.describe("10").num_labels == 1  # recovers the shard
                assert cluster.worker_states()[0]["generation"] == cycle
            assert parent_pid(cluster.worker_states()[0]["pid"]) == template
            assert len(os.listdir("/proc/self/fd")) == supervisor_fds
            assert len(os.listdir(f"/proc/{template}/fd")) == template_fds

    @pytest.mark.parametrize("mp_context", ["spawn", "fork"])
    def test_a_dead_workers_connection_reads_eof_at_once(self, mp_context):
        # If the template, a sibling worker or this process still held a copy
        # of a worker's end, the supervisor's end would never see EOF when the
        # worker dies.  A ``fork`` start copies every descriptor open here into
        # the template, so the first worker (whose launch starts the template)
        # and a worker whose launch restarts a killed template are the cases.
        def assert_eof_when_killed(cluster, index):
            os.kill(cluster.worker_states()[index]["pid"], signal.SIGKILL)
            readable, _, _ = select.select([cluster._workers[index].conn], [], [], 5.0)
            if not readable:
                cluster.kill_worker(index)  # close our end, or shutdown waits forever
            assert readable, f"worker {index}'s connection is held open elsewhere"
            assert cluster.session_ids() == []  # recovers the worker

        with ClusterSessionService(
            num_workers=2, mp_context=mp_context, heartbeat_interval=None
        ) as cluster:
            for index in (0, 1):
                assert_eof_when_killed(cluster, index)
            template = parent_pid(cluster.worker_states()[0]["pid"])
            os.kill(template, signal.SIGKILL)
            cluster.kill_worker(0)  # its relaunch starts a new template
            assert cluster.session_ids() == []
            assert parent_pid(cluster.worker_states()[0]["pid"]) != template
            assert_eof_when_killed(cluster, 0)

    def test_shutdown_leaves_no_template_or_worker(self):
        cluster = ClusterSessionService(num_workers=2, heartbeat_interval=None)
        try:
            workers = [state["pid"] for state in cluster.worker_states()]
            template = parent_pid(workers[0])
        finally:
            cluster.shutdown()
        assert [pid_exists(pid) for pid in (template, *workers)] == [False, False, False]

    def test_shutdown_is_bounded_when_a_worker_never_answers(self):
        cluster = ClusterSessionService(num_workers=2, heartbeat_interval=None)
        workers = [state["pid"] for state in cluster.worker_states()]
        template = parent_pid(workers[0])
        os.kill(workers[0], signal.SIGSTOP)
        try:
            stopper = threading.Thread(
                target=cluster.shutdown, kwargs={"timeout": 1.0}, daemon=True
            )
            stopper.start()
            stopper.join(10.0)
            assert not stopper.is_alive(), "shutdown waits on a worker that never answers"
        finally:
            try:
                os.kill(workers[0], signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert [pid_exists(pid) for pid in (template, *workers)] == [False, False, False]


def _service(request, backend: str):
    """A sync service, or the module's thread or process cluster."""
    if backend == "sync":
        return SessionService()
    return request.getfixturevalue("thread_cluster" if backend == "thread" else "cluster")


def _assert_rejected_without_change(service, call) -> None:
    """``call(sid)`` on a fresh manual session raises a typed unknown-id error,
    and the session still saves the same document, which still resumes."""
    table = tiny_table()
    session_id = service.create(table, mode="manual").session_id
    service.answer(session_id, "-", tuple_id=3)
    document = service.save(session_id)
    with pytest.raises(ReproError, match="unknown tuple id"):
        call(session_id)
    assert service.save(session_id) == document
    resumed = service.resume(document, table=table).session_id
    assert service.save(resumed) == document
    for sid in (session_id, resumed):
        service.close(sid)


class TestErrorParity:
    def test_unknown_session_and_table(self, cluster):
        with pytest.raises(SessionServiceError, match="unknown session id"):
            cluster.describe("not-hex-at-all!")
        with pytest.raises(SessionServiceError, match="unknown session id"):
            cluster.answer("beef", "+")
        with pytest.raises(SessionServiceError, match="no table registered"):
            cluster.create("deadbeef")

    def test_mode_options_validated_before_broadcast(self, cluster, flights_fingerprint):
        before = len(cluster)
        with pytest.raises(ValueError, match="guided"):
            cluster.create(flights_fingerprint, mode="guided", k=3)
        with pytest.raises(StrategyError):
            cluster.create(flights_fingerprint, strategy="no-such-strategy")
        assert len(cluster) == before

    def test_failed_create_registers_no_table(self, cluster):
        table = tiny_table()
        with pytest.raises(StrategyError):
            cluster.create(table, strategy="no-such-strategy")
        assert table_fingerprint(table) not in cluster.tables()

    def test_failed_resume_registers_no_table(self, cluster):
        table = tiny_table()
        sync = SessionService()
        document = sync.save(sync.create(table).session_id)
        document["labels"] = {"not-a-number": "+"}  # corrupt the document
        from repro.sessions.persistence import SessionPersistenceError

        with pytest.raises(SessionPersistenceError):
            cluster.resume(document, table=table)
        assert table_fingerprint(table) not in cluster.tables()

    def test_non_object_document_is_a_persistence_error(self, cluster, flights_fingerprint):
        from repro.sessions.persistence import SessionPersistenceError

        for table in (None, flights_fingerprint):
            for document in ([], "x"):
                with pytest.raises(SessionPersistenceError, match="must be a JSON object"):
                    cluster.resume(document, table=table)

    @pytest.mark.parametrize("backend", ["sync", "thread", "process"])
    def test_mixed_type_canonical_query_is_a_persistence_error(self, request, backend):
        from repro.sessions.persistence import SessionPersistenceError

        table = tiny_table()
        sync = SessionService()
        document = sync.save(sync.create(table).session_id)
        document["canonical_query"] = [[1, "maybe"]]
        if backend == "sync":
            service = sync
        elif backend == "thread":
            service = request.getfixturevalue("thread_cluster")
        else:
            service = request.getfixturevalue("cluster")
        with pytest.raises(SessionPersistenceError, match="attribute-name pairs"):
            service.resume(document, table=table)

    def test_non_hex_session_id_rejected_clearly(self, cluster, flights_fingerprint):
        with pytest.raises(ClusterServiceError, match="hexadecimal"):
            cluster.create(flights_fingerprint, session_id="my-session")

    def test_unexpected_worker_errors_are_not_service_errors(self):
        # An exception type outside the wire whitelist must NOT rebuild as a
        # SessionServiceError — the asyncio facade reaps sessions on those,
        # and an unexpected worker bug does not mean the session is gone.
        error = rebuild_error(
            {"status": "error", "kind": "AttributeError", "message": "boom"}
        )
        assert isinstance(error, ClusterWorkerError)
        assert not isinstance(error, SessionServiceError)
        assert "AttributeError" in str(error)

    def test_out_of_range_tuple_matches_single_process_error(
        self, cluster, flights_fingerprint
    ):
        table = flights_hotels.figure1_table()
        sync = SessionService()
        sync_sid = sync.create(table, mode="manual").session_id
        try:
            sync.answer(sync_sid, "+", tuple_id=9999)
            sync_raised = None
        except Exception as exc:  # noqa: BLE001 - the type is the assertion
            sync_raised = type(exc)
        descriptor = cluster.create(flights_fingerprint, mode="manual")
        if sync_raised is None:
            cluster.answer(descriptor.session_id, "+", tuple_id=9999)
        else:
            with pytest.raises(sync_raised):
                cluster.answer(descriptor.session_id, "+", tuple_id=9999)
        cluster.close(descriptor.session_id)

    @pytest.mark.parametrize("tuple_id", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("backend", ["sync", "thread", "process"])
    def test_non_integer_tuple_id_is_a_typed_error(self, request, backend, tuple_id):
        # A JSON body or worker frame may carry 1.0 or true where an id
        # belongs: either is an unknown tuple id, never tuple 1.
        service = _service(request, backend)
        _assert_rejected_without_change(
            service, lambda sid: service.answer(sid, "yes", tuple_id=tuple_id)
        )

    @pytest.mark.parametrize("tuple_id", [1.0, True], ids=["float", "bool"])
    def test_non_integer_tuple_id_in_a_batch_is_a_typed_error(self, tuple_id):
        service = SessionService()
        _assert_rejected_without_change(
            service, lambda sid: service.answer_many(sid, {tuple_id: "yes"})
        )

    def test_strategy_instances_cannot_cross_the_boundary(
        self, cluster, flights_fingerprint
    ):
        from repro.core.strategies.lookahead import EntropyStrategy

        with pytest.raises(ClusterServiceError, match="registry name"):
            cluster.create(flights_fingerprint, strategy=EntropyStrategy())

    def test_inconsistent_label_raises_with_worker_message(self, cluster):
        table = tiny_table()
        descriptor = cluster.create(table, mode="manual", strict=True)
        cluster.answer(descriptor.session_id, "+", tuple_id=0)
        with pytest.raises(InconsistentLabelError, match="certain"):
            cluster.answer(descriptor.session_id, "-", tuple_id=2)
        cluster.close(descriptor.session_id)

    def test_answer_many_error_carries_applied_events(self, cluster, flights_fingerprint):
        descriptor = cluster.create(flights_fingerprint, mode="manual", strict=True)
        # Tuple 0 is informative on the Figure 1 table, and labeling it "-"
        # leaves tuple 2 informative — so the first answer applies and the
        # unparseable second one fails the batch mid-way.
        with pytest.raises(InconsistentLabelError) as excinfo:
            cluster.answer_many(
                descriptor.session_id, [(0, "-"), (2, "certainly-not-a-label")]
            )
        applied = excinfo.value.applied_events
        assert len(applied) == 1 and applied[0].tuple_id == 0
        # The first answer of the failed batch really was applied.
        assert cluster.describe(descriptor.session_id).num_labels == 1
        cluster.close(descriptor.session_id)


class TestStrictLifecycle:
    """The acceptance scenario: lenient sessions stay lenient across the cluster."""

    def test_lenient_session_survives_save_resume_with_contradictions(self, cluster):
        table = tiny_table()
        descriptor = cluster.create(table, mode="manual", strict=False)
        assert descriptor.strict is False
        sid = descriptor.session_id
        cluster.answer(sid, "+", tuple_id=0)
        document_before = cluster.save(sid)
        # (2,2) is certain-positive now; the lenient original tolerates "-".
        original_applied = cluster.answer(sid, "-", tuple_id=2)
        document_after = cluster.save(sid)
        assert document_before["strict"] is False
        assert document_after["strict"] is False
        cluster.close(sid)

        # Resumed from the pre-contradiction snapshot, the session accepts
        # the same contradicting label the original accepted — producing the
        # identical event.
        resumed = cluster.resume(document_before)
        assert resumed.strict is False
        replayed = cluster.answer(resumed.session_id, "-", tuple_id=2)
        assert replayed == original_applied
        cluster.close(resumed.session_id)

        # The post-contradiction snapshot replays at all (a strict replay
        # raised before v3) and stays lenient.
        resumed = cluster.resume(document_after)
        assert resumed.strict is False
        assert resumed.num_labels == 2
        cluster.close(resumed.session_id)

    def test_cluster_documents_resume_on_single_process_service(self, cluster):
        table = tiny_table()
        descriptor = cluster.create(table, mode="manual", strict=False)
        cluster.answer(descriptor.session_id, "+", tuple_id=0)
        cluster.answer(descriptor.session_id, "-", tuple_id=2)  # contradiction
        document = cluster.save(descriptor.session_id)
        cluster.close(descriptor.session_id)

        sync = SessionService()
        resumed = sync.resume(document, table=table)
        assert resumed.strict is False
        assert resumed.num_labels == 2


class TestAsyncBridge:
    def test_streams_and_crowd_dispatch_over_the_cluster(
        self, cluster, flights_fingerprint, query_q2
    ):
        table = flights_hotels.figure1_table()

        async def scenario():
            async with AsyncSessionService(cluster, max_workers=2) as service:
                descriptor = await service.create(
                    flights_fingerprint, strategy="lookahead-entropy"
                )
                sid = descriptor.session_id
                streamed: list[dict] = []

                async def consume():
                    async for wire in service.events(sid):
                        streamed.append(wire)

                consumer = asyncio.create_task(consume())
                oracle = GoalQueryOracle(query_q2)
                commanded: list[dict] = []
                while True:
                    event = await service.next_question(sid)
                    commanded.append(event_to_wire(event))
                    if isinstance(event, Converged):
                        break
                    applied = await service.answer(
                        sid, oracle.label(table, event.tuple_id)
                    )
                    commanded.append(event_to_wire(applied))
                await service.close(sid)
                await asyncio.wait_for(consumer, timeout=30)
                assert streamed == commanded
                assert streamed[-1]["type"] == "converged"

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))


class TestShutdown:
    def test_commands_after_shutdown_raise_and_shutdown_is_idempotent(self):
        service = ClusterSessionService(num_workers=1)
        fingerprint = service.register_table(tiny_table())
        service.shutdown()
        service.shutdown()  # idempotent
        with pytest.raises(ClusterServiceError, match="shut down"):
            service.create(fingerprint)
        with pytest.raises(ClusterServiceError, match="shut down"):
            service.register_table(flights_hotels.figure1_table())
