"""Benchmark: the asyncio serving layer vs the synchronous `SessionService`.

The async layer (`repro.service.aio` + `repro.service.dispatch`) must be a
pure *serving* change — same inference, different concurrency model.  Two
gates:

1. **Event-trace equivalence** — driving a session through
   :class:`~repro.service.aio.AsyncSessionService` produces, per session,
   exactly the wire events the synchronous
   :class:`~repro.service.service.SessionService` produces for the same
   command sequence, across guided and top-k sessions on several workloads;
   and the session's *event stream* (``async for … in service.events(sid)``)
   carries exactly the events the commands returned.

2. **Concurrent throughput** — with answer latency simulated by crowd
   workers (the paper's serving scenario: every membership question takes a
   worker some think time), ≥ 64 sessions dispatched concurrently on one
   event loop must complete with a real wall-clock speedup over running the
   same sessions serialized one after another.  The speedup comes from
   overlapping the workers' latencies — exactly what the async layer exists
   to do; the CPU-bound inference steps still run one-per-core on the
   bounded executor.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_async_service.py           # full gates
    PYTHONPATH=src python benchmarks/bench_async_service.py --quick   # CI smoke

With ``--record``, runs append their measurements to
``benchmarks/results/BENCH_async_service.json`` (keyed by git commit +
config hash; see :mod:`repro.experiments.trajectory`); ``--compare`` diffs
the fresh speedup against the latest recorded same-config baseline.  Exit
status is non-zero on any trace mismatch, a non-converging session, a
``--compare`` regression, or (in full mode) a concurrent speedup below the
acceptance gate.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro import GoalQueryOracle, SessionService
from repro.datasets.workloads import figure1_workload
from repro.experiments.scalability import scalability_workloads
from repro.experiments.trajectory import compare_to_trajectory, record_benchmark
from repro.service import (
    AsyncSessionService,
    Converged,
    CrowdDispatcher,
    QuestionAsked,
    event_to_wire,
    simulated_crowd,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Simulated worker think time per answer in the throughput gate (seconds).
ANSWER_LATENCY = 0.005
#: Required concurrent-over-serialized speedup (full mode).
SPEEDUP_GATE = 3.0


def _scenarios(quick: bool) -> list[tuple[str, object, dict]]:
    """(name, workload, session kwargs) triples covering the session kinds."""
    scenarios = [
        ("figure1/q1 guided", figure1_workload("q1"), {"strategy": "lookahead-entropy"}),
        ("figure1/q2 guided", figure1_workload("q2"), {"strategy": "local-lexicographic"}),
        ("figure1/q2 top-k", figure1_workload("q2"), {"mode": "top-k", "k": 3}),
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


def _drive_sync(service: SessionService, session_id: str, table, oracle) -> list[dict]:
    """Drive a session to convergence, returning every wire event in order."""
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


async def _drive_async(
    service: AsyncSessionService, session_id: str, table, oracle
) -> list[dict]:
    """The identical command sequence, through the async facade."""
    events: list[dict] = []
    while True:
        event = await service.next_question(session_id)
        events.append(event_to_wire(event))
        if isinstance(event, Converged):
            return events
        if isinstance(event, QuestionAsked):
            applied = await service.answer(session_id, oracle.label(table, event.tuple_id))
            events.append(event_to_wire(applied))
        else:
            answers = [(tid, oracle.label(table, tid)) for tid in event.tuple_ids]
            events.extend(
                event_to_wire(applied)
                for applied in await service.answer_many(session_id, answers)
            )


def collect_sync_traces(quick: bool) -> list[tuple[str, object, dict, list[dict]]]:
    """The sync service's reference traces, one per scenario.

    Runs *before* the event loop starts: driving the blocking
    ``SessionService`` inside the ``async def`` below would stall the loop
    (RPR011), and the reference trace does not need to interleave with the
    async run anyway.
    """
    traces: list[tuple[str, object, dict, list[dict]]] = []
    for name, workload, kwargs in _scenarios(quick):
        sync_service = SessionService()
        sid = sync_service.create(workload.table, **kwargs).session_id
        events = _drive_sync(
            sync_service, sid, workload.table, GoalQueryOracle(workload.goal)
        )
        traces.append((name, workload, kwargs, events))
    return traces


async def check_equivalence(
    sync_traces: list[tuple[str, object, dict, list[dict]]],
) -> list[str]:
    """Per-session wire traces must be identical, sync vs async vs stream."""
    mismatches = []
    async with AsyncSessionService() as async_service:
        for name, workload, kwargs, sync_events in sync_traces:
            descriptor = await async_service.create(workload.table, **kwargs)
            collected: list[dict] = []

            async def consume(session_id: str, into: list[dict]) -> None:
                async for wire in async_service.events(session_id):
                    into.append(wire)

            consumer = asyncio.create_task(consume(descriptor.session_id, collected))
            async_events = await _drive_async(
                async_service,
                descriptor.session_id,
                workload.table,
                GoalQueryOracle(workload.goal),
            )
            await async_service.close(descriptor.session_id)
            await asyncio.wait_for(consumer, timeout=30)

            if async_events != sync_events:
                mismatches.append(f"{name}: async commands diverge from sync service")
            if collected != async_events:
                mismatches.append(f"{name}: event stream diverges from command results")
    return mismatches


async def measure_throughput(num_sessions: int, goal_atoms: int = 2) -> dict:
    """Wall-clock for N crowd-dispatched sessions: serialized vs concurrent."""
    workload = scalability_workloads(
        tuples_per_relation=(10,), goal_atoms=goal_atoms, seed=0
    )[0]
    workers = simulated_crowd(
        workload.goal, num_workers=8, mean_latency=ANSWER_LATENCY, seed=3
    )

    async def run_batch(concurrent: bool) -> tuple[float, int]:
        async with AsyncSessionService(max_sessions=num_sessions) as service:
            dispatcher = CrowdDispatcher(service, workers, votes_per_question=1)
            descriptors = [
                await service.create(workload.table, mode="top-k", k=3)
                for _ in range(num_sessions)
            ]
            started = time.perf_counter()
            if concurrent:
                reports = await asyncio.gather(
                    *(dispatcher.run(d.session_id) for d in descriptors)
                )
            else:
                reports = [await dispatcher.run(d.session_id) for d in descriptors]
            wall = time.perf_counter() - started
            expected = {frozenset(atom.attributes) for atom in workload.goal}
            converged = sum(
                1
                for report in reports
                if report.converged
                and {frozenset(pair) for pair in report.atoms} == expected
            )
            for descriptor in descriptors:
                await service.close(descriptor.session_id)
            return wall, converged

    serial_wall, serial_ok = await run_batch(concurrent=False)
    concurrent_wall, concurrent_ok = await run_batch(concurrent=True)
    return {
        "sessions": num_sessions,
        "serial_wall": serial_wall,
        "concurrent_wall": concurrent_wall,
        "speedup": serial_wall / concurrent_wall,
        "serial_ok": serial_ok,
        "concurrent_ok": concurrent_ok,
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
        "--record",
        action="store_true",
        help="append this run to benchmarks/results/BENCH_async_service.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="fail on regressions vs the latest recorded same-config baseline",
    )
    args = parser.parse_args(argv)
    num_sessions = args.sessions or (8 if args.quick else 64)

    print("== event-trace equivalence: async service vs sync service vs stream ==")
    mismatches = asyncio.run(check_equivalence(collect_sync_traces(args.quick)))
    if mismatches:
        print(f"FAIL: {len(mismatches)} diverging scenario(s):")
        for item in mismatches:
            print(f"  - {item}")
        return 1
    print("ok: identical per-session wire traces on all scenarios")

    print(f"\n== throughput: {num_sessions} crowd-dispatched sessions ==")
    stats = asyncio.run(measure_throughput(num_sessions))
    print(f"sessions:          {stats['sessions']}")
    print(f"serialized wall:   {stats['serial_wall']:.3f}s ({stats['serial_ok']} converged to goal)")
    print(f"concurrent wall:   {stats['concurrent_wall']:.3f}s ({stats['concurrent_ok']} converged to goal)")
    print(f"speedup:           {stats['speedup']:.1f}x")

    if stats["serial_ok"] != num_sessions or stats["concurrent_ok"] != num_sessions:
        print("FAIL: not every session converged to the goal query")
        return 1
    if not args.quick and stats["speedup"] < SPEEDUP_GATE:
        print(f"FAIL: concurrent speedup below the {SPEEDUP_GATE}x acceptance gate")
        return 1

    config = {"quick": args.quick, "sessions": num_sessions}
    if args.compare:
        regressions, baseline = compare_to_trajectory(
            "async_service", RESULTS_DIR, config, stats, ["speedup"]
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
        path = record_benchmark("async_service", config, stats, RESULTS_DIR)
        print(f"recorded trajectory: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
