"""Benchmark: the multi-process cluster vs the single-process serving stack.

`repro.service.cluster.ClusterSessionService` must be a pure *sharding*
change — same inference, same wire protocol, more cores.  Two gates:

1. **Wire-trace equivalence** — driving a session through the cluster
   produces, per session, exactly the wire events the single-process
   :class:`~repro.service.service.SessionService` produces for the same
   command sequence, across guided / top-k / manual sessions on several
   workloads; a session saved mid-run on one tier resumes on the other with
   an identical remainder; and the asyncio bridge
   (``AsyncSessionService(cluster)``) streams exactly the events the
   commands returned.

2. **Concurrent throughput** — 64 concurrent *CPU-bound* lookahead-entropy
   sessions (no simulated answer latency: the work is strategy scoring)
   through the cluster-backed async service must beat the single-process
   async service by ≥ 2× wall-clock.  Threads cannot give this speedup —
   the GIL serialises the scoring — so the gate fails unless the sharding
   actually runs on multiple cores.  On a single-core machine the speedup
   is reported but not gated (there is nothing to shard onto).

3. **Chaos equivalence** (``--chaos``) — N concurrent mixed-kind sessions
   through a supervised process cluster while a killer thread SIGKILLs a
   seeded-random worker once a seeded-random fraction (20–80 %) of the
   expected labels have been applied.  The supervisor must respawn the
   worker and replay its sessions so that *every* session's wire trace is
   byte-identical to an undisturbed single-process run — the fault gate of
   the fault-tolerant cluster work.

Both modes also report the cluster's ``startup_s`` (construction plus
``register_table``), and ``--chaos`` its ``respawn_ms`` (from the kill to
the first successful reply from the respawned shard); these are recorded,
not gated.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cluster_service.py           # full gates
    PYTHONPATH=src python benchmarks/bench_cluster_service.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_cluster_service.py --chaos   # fault gate

With ``--record``, runs append their measurements to
``benchmarks/results/BENCH_cluster_service.json`` (keyed by git commit +
config hash; see :mod:`repro.experiments.trajectory`); ``--compare`` diffs
the fresh speedup against the latest recorded same-config baseline.  Exit
status is non-zero on any trace mismatch, a non-converging session, a
``--compare`` regression, or (full mode, ≥ 2 cores) a concurrent speedup
below the acceptance gate.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import sys
import threading
import time
from collections.abc import Sequence
from pathlib import Path

from repro import ClusterSessionService, GoalQueryOracle, SessionService
from repro.datasets.workloads import figure1_workload
from repro.experiments.scalability import scalability_workloads
from repro.experiments.trajectory import compare_to_trajectory, record_benchmark
from repro.service import (
    AsyncSessionService,
    Converged,
    QuestionAsked,
    event_to_wire,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Required cluster-over-single-process speedup (full mode, ≥ 2 cores).
SPEEDUP_GATE = 2.0
#: Workload size of the throughput gate (26 tuples/relation ≈ 676 candidates:
#: a few ms of strategy scoring per question, far above the pipe overhead).
THROUGHPUT_SIZE = 26

#: Session kinds the chaos gate cycles over — every facade mode is in the
#: blast radius, not just the guided strategies.
CHAOS_KINDS = (
    {"strategy": "lookahead-entropy"},
    {"mode": "top-k", "k": 4},
    {"strategy": "local-lexicographic"},
    {"mode": "manual-with-pruning"},
)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scenarios(quick: bool) -> list[tuple[str, object, dict]]:
    """(name, workload, session kwargs) triples covering the session kinds."""
    scenarios = [
        ("figure1/q1 guided", figure1_workload("q1"), {"strategy": "lookahead-entropy"}),
        ("figure1/q2 guided", figure1_workload("q2"), {"strategy": "local-lexicographic"}),
        ("figure1/q2 top-k", figure1_workload("q2"), {"mode": "top-k", "k": 3}),
        (
            "figure1/q2 manual",
            figure1_workload("q2"),
            {"mode": "manual-with-pruning"},
        ),
    ]
    sizes = (6,) if quick else (10, 20)
    for workload in scalability_workloads(tuples_per_relation=sizes, goal_atoms=2, seed=0):
        scenarios.append(
            (
                f"scalability/{workload.num_candidates} guided",
                workload,
                {"strategy": "lookahead-entropy"},
            )
        )
        scenarios.append(
            (
                f"scalability/{workload.num_candidates} top-k",
                workload,
                {"mode": "top-k", "k": 4},
            )
        )
    return scenarios


def _drive(service, session_id: str, table, oracle) -> list[dict]:
    """Drive a session to convergence, returning every wire event in order.

    Works against any facade speaking the `SessionService` API — the
    single-process service and the cluster take the identical command
    sequence.
    """
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
            answers = [(tid, oracle.label(table, tid)) for tid in event.tuple_ids]
            events.extend(
                event_to_wire(applied)
                for applied in service.answer_many(session_id, answers)
            )


def _drive_split(service, session_id: str, table, oracle, split: int) -> list[dict]:
    """Like :func:`_drive`, but stop after ``split`` label events."""
    events: list[dict] = []
    labels = 0
    while labels < split:
        event = service.next_question(session_id)
        events.append(event_to_wire(event))
        if isinstance(event, Converged):
            return events
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


def check_equivalence(cluster: ClusterSessionService, quick: bool) -> list[str]:
    """Per-session wire traces must be identical, single-process vs cluster."""
    mismatches = []
    for name, workload, kwargs in _scenarios(quick):
        oracle = GoalQueryOracle(workload.goal)

        sync_service = SessionService()
        sid = sync_service.create(workload.table, **kwargs).session_id
        sync_events = _drive(sync_service, sid, workload.table, oracle)

        fingerprint = cluster.register_table(workload.table)
        descriptor = cluster.create(fingerprint, **kwargs)
        cluster_events = _drive(cluster, descriptor.session_id, workload.table, oracle)
        cluster.close(descriptor.session_id)

        if cluster_events != sync_events:
            mismatches.append(f"{name}: cluster commands diverge from sync service")

        # Cross-tier resume: save mid-run on the cluster, finish on a fresh
        # single-process service (and vice versa); the stitched trace must
        # equal the uninterrupted one.
        descriptor = cluster.create(fingerprint, **kwargs)
        head = _drive_split(cluster, descriptor.session_id, workload.table, oracle, 2)
        document = cluster.save(descriptor.session_id)
        cluster.close(descriptor.session_id)
        fresh = SessionService()
        resumed = fresh.resume(document, table=workload.table)
        tail = _drive(fresh, resumed.session_id, workload.table, oracle)
        if head[-1]["type"] == "converged":
            stitched = head
        else:
            stitched = head + tail
        if stitched != sync_events:
            mismatches.append(f"{name}: cluster->sync resume diverges")

        sync_service = SessionService()
        sid = sync_service.create(workload.table, **kwargs).session_id
        head = _drive_split(sync_service, sid, workload.table, oracle, 2)
        document = sync_service.save(sid)
        resumed = cluster.resume(document, table=workload.table)
        tail = _drive(cluster, resumed.session_id, workload.table, oracle)
        cluster.close(resumed.session_id)
        if head[-1]["type"] == "converged":
            stitched = head
        else:
            stitched = head + tail
        if stitched != sync_events:
            mismatches.append(f"{name}: sync->cluster resume diverges")
    return mismatches


async def check_async_bridge(cluster: ClusterSessionService) -> list[str]:
    """`AsyncSessionService(cluster)` must stream exactly what commands return."""
    mismatches = []
    workload = figure1_workload("q2")
    oracle = GoalQueryOracle(workload.goal)
    async with AsyncSessionService(cluster, max_workers=2) as service:
        descriptor = await service.create(workload.table, strategy="lookahead-entropy")
        collected: list[dict] = []

        async def consume() -> None:
            async for wire in service.events(descriptor.session_id):
                collected.append(wire)

        consumer = asyncio.create_task(consume())
        commanded: list[dict] = []
        while True:
            event = await service.next_question(descriptor.session_id)
            commanded.append(event_to_wire(event))
            if isinstance(event, Converged):
                break
            applied = await service.answer(
                descriptor.session_id, oracle.label(workload.table, event.tuple_id)
            )
            commanded.append(event_to_wire(applied))
        await service.close(descriptor.session_id)
        await asyncio.wait_for(consumer, timeout=30)
    if collected != commanded:
        mismatches.append("asyncio bridge: event stream diverges from command results")
    return mismatches


async def _run_concurrent(backing, num_sessions: int, workers: int, workload) -> tuple[float, int]:
    """Wall-clock for N concurrent CPU-bound guided sessions on one backing."""
    oracle = GoalQueryOracle(workload.goal)
    expected = {frozenset(atom.attributes) for atom in workload.goal}

    async def drive(service: AsyncSessionService, session_id: str) -> bool:
        while True:
            event = await service.next_question(session_id)
            if isinstance(event, Converged):
                return {frozenset(pair) for pair in event.atoms} == expected
            await service.answer(
                session_id, oracle.label(workload.table, event.tuple_id)
            )

    async with AsyncSessionService(
        backing, max_sessions=num_sessions, max_workers=workers
    ) as service:
        descriptors = [
            await service.create(workload.table, strategy="lookahead-entropy")
            for _ in range(num_sessions)
        ]
        started = time.perf_counter()
        outcomes = await asyncio.gather(
            *(drive(service, d.session_id) for d in descriptors)
        )
        wall = time.perf_counter() - started
        for descriptor in descriptors:
            await service.close(descriptor.session_id)
    return wall, sum(outcomes)


def measure_throughput(num_sessions: int, workers: int, size: int) -> dict:
    """Wall-clock for N CPU-bound sessions: single-process vs cluster-backed."""
    workload = scalability_workloads(
        tuples_per_relation=(size,), goal_atoms=2, seed=0
    )[0]
    single_wall, single_ok = asyncio.run(
        _run_concurrent(SessionService(), num_sessions, workers, workload)
    )
    started = time.perf_counter()
    with ClusterSessionService(num_workers=workers) as cluster:
        cluster.register_table(workload.table)
        startup = time.perf_counter() - started
        cluster_wall, cluster_ok = asyncio.run(
            _run_concurrent(cluster, num_sessions, workers, workload)
        )
    return {
        "sessions": num_sessions,
        "workers": workers,
        "candidates": workload.num_candidates,
        "single_wall": single_wall,
        "cluster_wall": cluster_wall,
        "speedup": single_wall / cluster_wall,
        "startup_s": startup,
        "single_ok": single_ok,
        "cluster_ok": cluster_ok,
    }


def run_chaos(num_sessions: int, workers: int, seed: int) -> dict:
    """SIGKILL a worker mid-run; every session's trace must stay identical.

    Drives ``num_sessions`` concurrent sessions (kinds cycled from
    :data:`CHAOS_KINDS`) through a supervised process cluster from plain
    threads.  A killer thread watches the shared applied-label counter and
    SIGKILLs a seeded-random worker once a seeded-random fraction (20–80 %)
    of the expected total labels is in — real mid-run machine loss, not a
    quiesced kill.  Per-session wire traces are then compared against
    undisturbed single-process baselines.

    Also measured, not gated: ``startup_s`` and ``respawn_ms``, the latter
    up to the first successful reply from the victim's shard to a command
    begun after the kill returned.
    """
    workload = figure1_workload("q1")
    oracle = GoalQueryOracle(workload.goal)
    rng = random.Random(seed)

    baselines = []
    for kwargs in CHAOS_KINDS:
        service = SessionService()
        sid = service.create(workload.table, **kwargs).session_id
        baselines.append(_drive(service, sid, workload.table, oracle))
    labels_per_kind = [
        sum(1 for event in baseline if event["type"] == "label_applied")
        for baseline in baselines
    ]
    expected_labels = sum(
        labels_per_kind[i % len(CHAOS_KINDS)] for i in range(num_sessions)
    )
    threshold = rng.randint(
        max(1, int(0.2 * expected_labels)), max(1, int(0.8 * expected_labels))
    )
    victim = rng.randrange(workers)

    progress = [0]
    progress_lock = threading.Lock()
    traces: list[list[dict] | None] = [None] * num_sessions
    errors: list[str] = []
    kills = [0]
    stop_killer = threading.Event()
    # (kill sent, kill returned); then when the respawned shard first replied.
    kill_window: list[tuple[float, float] | None] = [None]
    first_reply: list[float] = []

    started = time.perf_counter()
    with ClusterSessionService(num_workers=workers, heartbeat_interval=0.5) as cluster:
        fingerprint = cluster.register_table(workload.table)
        startup = time.perf_counter() - started
        sids = [
            cluster.create(fingerprint, **CHAOS_KINDS[i % len(CHAOS_KINDS)]).session_id
            for i in range(num_sessions)
        ]

        def note_reply(session_id: str, begun: float) -> None:
            window = kill_window[0]
            if window is None or begun < window[1]:
                return
            if cluster.worker_index(session_id) == victim:
                replied = time.perf_counter()
                with progress_lock:
                    if not first_reply:
                        first_reply.append(replied)

        def drive(slot: int, session_id: str) -> None:
            events: list[dict] = []
            try:
                while True:
                    begun = time.perf_counter()
                    event = cluster.next_question(session_id)
                    note_reply(session_id, begun)
                    events.append(event_to_wire(event))
                    if isinstance(event, Converged):
                        break
                    begun = time.perf_counter()
                    if isinstance(event, QuestionAsked):
                        batch = [
                            cluster.answer(
                                session_id, oracle.label(workload.table, event.tuple_id)
                            )
                        ]
                    else:
                        answers = [
                            (tid, oracle.label(workload.table, tid))
                            for tid in event.tuple_ids
                        ]
                        batch = cluster.answer_many(session_id, answers)
                    note_reply(session_id, begun)
                    events.extend(event_to_wire(applied) for applied in batch)
                    with progress_lock:
                        progress[0] += len(batch)
            except Exception as exc:  # noqa: BLE001 - reported as a gate failure
                errors.append(f"session {session_id}: {exc!r}")
            traces[slot] = events

        def killer() -> None:
            while not stop_killer.is_set():
                with progress_lock:
                    done = progress[0]
                if done >= threshold:
                    sent = time.perf_counter()
                    cluster.kill_worker(victim)
                    kill_window[0] = (sent, time.perf_counter())
                    kills[0] += 1
                    return
                time.sleep(0.001)

        threads = [
            threading.Thread(target=drive, args=(slot, sid))
            for slot, sid in enumerate(sids)
        ]
        killer_thread = threading.Thread(target=killer)
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        killer_thread.start()
        for thread in threads:
            thread.join()
        stop_killer.set()
        killer_thread.join()
        wall = time.perf_counter() - started
        respawns = sum(state["generation"] for state in cluster.worker_states())

    mismatches = list(errors)
    for slot, trace in enumerate(traces):
        if trace != baselines[slot % len(CHAOS_KINDS)]:
            kind = CHAOS_KINDS[slot % len(CHAOS_KINDS)]
            mismatches.append(f"session {slot} ({kind}): trace diverges from baseline")

    return {
        "sessions": num_sessions,
        "workers": workers,
        "seed": seed,
        "victim": victim,
        "threshold": threshold,
        "expected_labels": expected_labels,
        "wall": wall,
        "throughput": num_sessions / wall,
        "kills": kills[0],
        "respawns": respawns,
        "startup_s": startup,
        "respawn_ms": (
            1e3 * (first_reply[0] - kill_window[0][0]) if first_reply else None
        ),
        "mismatches": mismatches,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: fewer sessions, no speedup gate"
    )
    parser.add_argument(
        "--sessions", type=int, default=None, help="concurrent session count (default 64, quick 8)"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="cluster worker processes (default: up to 4 cores)"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="fault gate: SIGKILL a worker mid-run, require byte-identical traces",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="chaos schedule seed (kill point + victim)"
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="append this run to benchmarks/results/BENCH_cluster_service.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="fail on regressions vs the latest recorded same-config baseline",
    )
    args = parser.parse_args(argv)
    num_sessions = args.sessions or (8 if args.quick else 64)
    cores = _cores()
    workers = args.workers or max(2, min(4, cores))

    if args.chaos:
        print(
            f"== chaos: {num_sessions} mixed-kind sessions, {workers} workers, "
            f"SIGKILL schedule seed {args.seed} =="
        )
        stats = run_chaos(num_sessions, workers, args.seed)
        print(
            f"kill:       worker {stats['victim']} at label "
            f"{stats['threshold']}/{stats['expected_labels']} "
            f"({stats['kills']} kill(s) fired)"
        )
        print(f"respawns:   {stats['respawns']} worker generation(s) replaced")
        print(f"startup:    {stats['startup_s']:.3f}s (construction + register_table)")
        if stats["respawn_ms"] is not None:
            print(f"respawn:    {stats['respawn_ms']:.1f}ms from the kill to the shard's next reply")
        print(f"wall:       {stats['wall']:.3f}s ({stats['throughput']:.1f} sessions/s)")
        mismatches = stats.pop("mismatches")
        if mismatches:
            print(f"FAIL: {len(mismatches)} session(s) diverged or errored:")
            for item in mismatches[:10]:
                print(f"  - {item}")
            return 1
        if stats["kills"] < 1:
            print("FAIL: the run finished before the scheduled kill fired")
            return 1
        if stats["respawns"] < 1:
            print("FAIL: no worker was respawned after the kill")
            return 1
        print("ok: every trace byte-identical to its undisturbed single-process run")
        config = {
            "chaos": True,
            "sessions": num_sessions,
            "workers": workers,
            "seed": args.seed,
        }
        if args.compare:
            regressions, baseline = compare_to_trajectory(
                "cluster_service", RESULTS_DIR, config, stats, ["throughput"], tolerance=0.5
            )
            if baseline is None:
                print("compare: no recorded baseline for this configuration (vacuously green)")
            elif regressions:
                print(f"compare: REGRESSED vs baseline at commit {baseline.get('commit', '?')[:12]}:")
                for line in regressions:
                    print(f"  - {line}")
                return 1
            else:
                print(f"compare: green vs baseline at commit {baseline.get('commit', '?')[:12]}")
        if args.record:
            path = record_benchmark("cluster_service", config, stats, RESULTS_DIR)
            print(f"recorded trajectory: {path}")
        return 0

    print("== wire-trace equivalence: cluster vs single-process service ==")
    with ClusterSessionService(num_workers=2) as cluster:
        mismatches = check_equivalence(cluster, args.quick)
        mismatches += asyncio.run(check_async_bridge(cluster))
    if mismatches:
        print(f"FAIL: {len(mismatches)} diverging scenario(s):")
        for item in mismatches:
            print(f"  - {item}")
        return 1
    print("ok: identical per-session wire traces on all scenarios (incl. cross-tier resume)")

    size = 10 if args.quick else THROUGHPUT_SIZE
    print(
        f"\n== throughput: {num_sessions} CPU-bound lookahead-entropy sessions, "
        f"{workers} workers, {cores} core(s) =="
    )
    stats = measure_throughput(num_sessions, workers, size)
    print(f"sessions:            {stats['sessions']} ({stats['candidates']} candidates each)")
    print(f"single-process wall: {stats['single_wall']:.3f}s ({stats['single_ok']} converged to goal)")
    print(f"cluster wall:        {stats['cluster_wall']:.3f}s ({stats['cluster_ok']} converged to goal)")
    print(f"speedup:             {stats['speedup']:.2f}x")
    print(f"cluster startup:     {stats['startup_s']:.3f}s (construction + register_table)")

    if stats["single_ok"] != num_sessions or stats["cluster_ok"] != num_sessions:
        print("FAIL: not every session converged to the goal query")
        return 1
    if not args.quick:
        if cores < 2:
            print("note: single core available — the speedup gate needs >= 2 cores and is skipped")
        elif stats["speedup"] < SPEEDUP_GATE:
            print(f"FAIL: cluster speedup below the {SPEEDUP_GATE}x acceptance gate")
            return 1

    config = {"quick": args.quick, "sessions": num_sessions, "workers": workers, "size": size}
    if args.compare:
        # The cluster speedup scales with the machine's cores, so the
        # tolerance is wide: this is a drift net, not a precision gate.
        regressions, baseline = compare_to_trajectory(
            "cluster_service", RESULTS_DIR, config, stats, ["speedup"], tolerance=0.5
        )
        if baseline is None:
            print("compare: no recorded baseline for this configuration (vacuously green)")
        elif regressions:
            print(f"compare: REGRESSED vs baseline at commit {baseline.get('commit', '?')[:12]}:")
            for line in regressions:
                print(f"  - {line}")
            return 1
        else:
            print(f"compare: green vs baseline at commit {baseline.get('commit', '?')[:12]}")
    if args.record:
        path = record_benchmark("cluster_service", config, stats, RESULTS_DIR)
        print(f"recorded trajectory: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
