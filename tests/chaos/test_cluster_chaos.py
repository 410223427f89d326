"""Cluster supervision under injected faults: worker death must be invisible.

The contract under test is the ROADMAP's top open item: kill a worker — a
real ``SIGKILL`` for process workers, a severed socket for thread workers,
or a scheduled :class:`FaultyTransport` sever mid-command — and every
session finishes with a wire trace byte-identical to an undisturbed run on
the single-process :class:`SessionService`.  With ``respawn=False`` the
same deaths must instead surface as a typed
:class:`WorkerUnavailableError` naming the worker (the satellite fix for
the raw ``EOFError``/``BrokenPipeError`` the pipe-era cluster leaked).
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from faults import FaultSchedule, FaultyTransport, gen0_faulty_wrapper

from repro import GoalQueryOracle, SessionService
from repro.datasets.workloads import figure1_workload
from repro.service import (
    ClusterSessionService,
    Converged,
    QuestionAsked,
    SessionServiceError,
    WorkerUnavailableError,
    event_to_wire,
)

#: The distinct seeded schedules the acceptance criteria require (>= 3).
SEEDS = (7, 21, 42)

#: The session kinds the chaos runs cycle over.
KINDS = (
    {"strategy": "lookahead-entropy"},
    {"mode": "top-k", "k": 3},
    {"strategy": "local-lexicographic"},
    {"mode": "manual-with-pruning"},
)


def _drive(service, session_id, table, oracle, limit=None):
    """Drive a session to convergence (or ``limit`` labels); the wire trace."""
    events = []
    labels = 0
    while limit is None or labels < limit:
        event = service.next_question(session_id)
        events.append(event_to_wire(event))
        if isinstance(event, Converged):
            break
        if isinstance(event, QuestionAsked):
            applied = service.answer(session_id, oracle.label(table, event.tuple_id))
            events.append(event_to_wire(applied))
            labels += 1
        else:
            answers = [(tid, oracle.label(table, tid)) for tid in event.tuple_ids]
            for applied in service.answer_many(session_id, answers):
                events.append(event_to_wire(applied))
                labels += 1
    return events


def _parent_pid(pid):
    """The parent of a live process, from ``/proc/<pid>/stat`` (Linux)."""
    with open(f"/proc/{pid}/stat") as stat:
        return int(stat.read().rpartition(")")[2].split()[1])


def _baseline(workload, kwargs):
    """The undisturbed single-process trace for one session kind."""
    oracle = GoalQueryOracle(workload.goal)
    service = SessionService()
    sid = service.create(workload.table, **kwargs).session_id
    return _drive(service, sid, workload.table, oracle)


def _thread_cluster(**overrides):
    """A supervised in-process cluster; heartbeat off for determinism."""
    settings = {
        "num_workers": 2,
        "backend": "thread",
        "heartbeat_interval": None,
    }
    settings.update(overrides)
    return ClusterSessionService(**settings)


@pytest.fixture(scope="module")
def workload():
    return figure1_workload("q1")


@pytest.fixture(scope="module")
def oracle(workload):
    return GoalQueryOracle(workload.goal)


# --------------------------------------------------------------------------- #
# Worker death absorbed by respawn
# --------------------------------------------------------------------------- #
class TestKillWorker:
    @pytest.mark.parametrize("kill_after", [0, 1, 3])
    def test_thread_worker_killed_mid_session_trace_identical(
        self, workload, oracle, kill_after
    ):
        baseline = _baseline(workload, KINDS[0])
        with _thread_cluster() as cluster:
            fingerprint = cluster.register_table(workload.table)
            sid = cluster.create(fingerprint, **KINDS[0]).session_id
            head = _drive(cluster, sid, workload.table, oracle, limit=kill_after)
            cluster.kill_worker(cluster.worker_index(sid))
            tail = _drive(cluster, sid, workload.table, oracle)
            assert head + tail == baseline
            assert cluster.worker_states()[cluster.worker_index(sid)]["generation"] == 1

    def test_every_kind_survives_killing_both_workers(self, workload, oracle):
        baselines = [_baseline(workload, kwargs) for kwargs in KINDS]
        with _thread_cluster() as cluster:
            fingerprint = cluster.register_table(workload.table)
            # Pinned ids alternate shards so killing both workers matters.
            sids = ("10", "11", "12", "13")
            for sid, kwargs in zip(sids, KINDS, strict=True):
                cluster.create(fingerprint, session_id=sid, **kwargs)
            heads = [
                _drive(cluster, sid, workload.table, oracle, limit=2) for sid in sids
            ]
            cluster.kill_worker(0)
            cluster.kill_worker(1)
            for sid, head, baseline in zip(sids, heads, baselines, strict=True):
                tail = _drive(cluster, sid, workload.table, oracle)
                assert head + tail == baseline
            assert [state["generation"] for state in cluster.worker_states()] == [1, 1]

    def test_process_worker_sigkilled_mid_session_trace_identical(
        self, workload, oracle
    ):
        baseline = _baseline(workload, KINDS[0])
        with ClusterSessionService(num_workers=2, heartbeat_interval=None) as cluster:
            fingerprint = cluster.register_table(workload.table)
            sid = cluster.create(fingerprint, **KINDS[0]).session_id
            owner = cluster.worker_index(sid)
            old_pid = cluster.worker_states()[owner]["pid"]
            head = _drive(cluster, sid, workload.table, oracle, limit=2)
            cluster.kill_worker(owner)  # a real SIGKILL
            tail = _drive(cluster, sid, workload.table, oracle)
            assert head + tail == baseline
            state = cluster.worker_states()[owner]
            assert state["generation"] == 1
            assert state["alive"] and state["pid"] != old_pid

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc (Linux)")
    def test_template_sigkilled_then_worker_sigkilled_trace_identical(
        self, workload, oracle
    ):
        baseline = _baseline(workload, KINDS[0])
        with ClusterSessionService(num_workers=2, heartbeat_interval=None) as cluster:
            fingerprint = cluster.register_table(workload.table)
            sid = cluster.create(fingerprint, **KINDS[0]).session_id
            owner = cluster.worker_index(sid)
            head = _drive(cluster, sid, workload.table, oracle, limit=2)
            template = _parent_pid(cluster.worker_states()[owner]["pid"])
            assert template != os.getpid()
            os.kill(template, signal.SIGKILL)  # the worker template dies first
            cluster.kill_worker(owner)
            tail = _drive(cluster, sid, workload.table, oracle)
            assert head + tail == baseline
            states = cluster.worker_states()
            assert states[owner]["generation"] == 1 and states[owner]["alive"]
            # The respawn relaunched the template: the new worker is a fork
            # of a new template, itself a child of this process.
            relaunched = _parent_pid(states[owner]["pid"])
            assert relaunched not in (template, os.getpid())
            assert _parent_pid(relaunched) == os.getpid()
            # The other worker outlived its template and kept its sessions.
            assert states[1 - owner]["generation"] == 0 and states[1 - owner]["alive"]

    def test_save_and_session_ids_survive_a_kill(self, workload, oracle):
        with _thread_cluster() as cluster:
            fingerprint = cluster.register_table(workload.table)
            sid = cluster.create(fingerprint, **KINDS[0]).session_id
            _drive(cluster, sid, workload.table, oracle, limit=2)
            before = cluster.save(sid)
            cluster.kill_worker(cluster.worker_index(sid))
            assert cluster.save(sid) == before
            assert cluster.session_ids() == [sid]


# --------------------------------------------------------------------------- #
# Seeded fault schedules through the connection_wrapper seam
# --------------------------------------------------------------------------- #
class TestSeededSchedules:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scheduled_sever_mid_run_trace_identical(self, workload, oracle, seed):
        baselines = [_baseline(workload, kwargs) for kwargs in KINDS]
        # length=24 draws each sever inside [6, 18) — past the ping and
        # table broadcast (ops 0-3) but well inside each shard's first
        # session drive, so every schedule is guaranteed to fire.
        schedules = {
            index: FaultSchedule.seeded(seed + index, length=24)
            for index in range(2)
        }
        wrapper, transports = gen0_faulty_wrapper(schedules)
        with _thread_cluster(connection_wrapper=wrapper) as cluster:
            fingerprint = cluster.register_table(workload.table)
            # Pinned ids alternate shards so both schedules see enough ops.
            sids = ("10", "11", "12", "13")
            for sid, kwargs, baseline in zip(sids, KINDS, baselines, strict=True):
                cluster.create(fingerprint, session_id=sid, **kwargs)
                assert _drive(cluster, sid, workload.table, oracle) == baseline
                cluster.close(sid)
            # The schedules actually fired: each gen-0 connection severed.
            assert all(transport.severed for transport in transports.values())
            assert [state["generation"] for state in cluster.worker_states()] == [1, 1]


# --------------------------------------------------------------------------- #
# Death during create and during table broadcast (the satellite fix)
# --------------------------------------------------------------------------- #
class TestDeathDuringCreate:
    def _create_severing_cluster(self, sever_op, **overrides):
        """A 2-worker cluster whose worker 0 severs at ``sever_op``.

        Per-worker gen-0 ops: ping send/recv are 0/1, the register_table
        broadcast is 2/3, so a create routed to worker 0 is ops 4 (send)
        and 5 (recv) — sever at 4 kills the worker before it applies the
        create, at 5 after it applied but before the reply arrives.
        """
        wrapper, transports = gen0_faulty_wrapper(
            {0: FaultSchedule({sever_op: ("sever",)})}
        )
        return _thread_cluster(connection_wrapper=wrapper, **overrides), transports

    @pytest.mark.parametrize("sever_op", [4, 5])
    def test_create_retried_transparently_after_worker_death(
        self, workload, oracle, sever_op
    ):
        baseline = _baseline(workload, KINDS[0])
        cluster, transports = self._create_severing_cluster(sever_op)
        with cluster:
            fingerprint = cluster.register_table(workload.table)
            # Routed to worker 0 (int("10", 16) % 2 == 0): dies mid-create.
            descriptor = cluster.create(fingerprint, session_id="10", **KINDS[0])
            assert transports[0].severed
            assert cluster.worker_states()[0]["generation"] == 1
            assert descriptor.session_id == "10"
            assert _drive(cluster, "10", workload.table, oracle) == baseline

    def test_death_during_create_without_respawn_raises_typed_error(
        self, workload
    ):
        cluster, _transports = self._create_severing_cluster(4, respawn=False)
        with cluster:
            fingerprint = cluster.register_table(workload.table)
            with pytest.raises(WorkerUnavailableError, match="worker 0") as excinfo:
                cluster.create(fingerprint, session_id="10", **KINDS[0])
            assert excinfo.value.worker_index == 0
            assert "respawn is disabled" in str(excinfo.value)
            # Typed as a service error, never a raw EOFError/BrokenPipeError.
            assert isinstance(excinfo.value, SessionServiceError)
            # The other worker is untouched: sessions still run there.
            descriptor = cluster.create(fingerprint, session_id="11", **KINDS[0])
            assert cluster.describe(descriptor.session_id).converged is False


class TestDeathDuringBroadcast:
    def test_broadcast_to_dead_worker_without_respawn_raises_typed_error(
        self, workload
    ):
        with _thread_cluster(respawn=False) as cluster:
            cluster.kill_worker(1)
            with pytest.raises(WorkerUnavailableError, match="worker 1") as excinfo:
                cluster.register_table(workload.table)
            assert excinfo.value.worker_index == 1

    def test_broadcast_respawns_dead_worker_and_registers_everywhere(
        self, workload, oracle
    ):
        baseline = _baseline(workload, KINDS[0])
        with _thread_cluster() as cluster:
            cluster.kill_worker(1)
            fingerprint = cluster.register_table(workload.table)
            assert cluster.worker_states()[1]["generation"] == 1
            # Both shards can host sessions over the broadcast table.
            for sid in ("10", "11"):
                cluster.create(fingerprint, session_id=sid, **KINDS[0])
                assert _drive(cluster, sid, workload.table, oracle) == baseline


# --------------------------------------------------------------------------- #
# Heartbeat supervision
# --------------------------------------------------------------------------- #
class TestHeartbeat:
    def test_idle_dead_worker_respawned_by_heartbeat(self, workload, oracle):
        with _thread_cluster(
            heartbeat_interval=0.05, heartbeat_timeout=2.0
        ) as cluster:
            fingerprint = cluster.register_table(workload.table)
            cluster.kill_worker(0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                state = cluster.worker_states()[0]
                if state["generation"] >= 1 and state["alive"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("heartbeat never respawned the killed worker")
            # The respawned worker serves its shard without a command ever
            # having observed the death.
            sid = cluster.create(fingerprint, session_id="10", **KINDS[0]).session_id
            assert _drive(cluster, sid, workload.table, oracle) == _baseline(
                workload, KINDS[0]
            )
