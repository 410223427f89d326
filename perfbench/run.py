"""The repository benchmark: interactive join-query inference, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload guided-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test      # every workload at tiny size, in seconds

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count sessions, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``), each as ``{"value": ..., "unit": ...}``.  The workloads, why
each was chosen, the metrics and the layer table are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.path.insert(0, str(ROOT / "src"))
# The benchmark's own modules (and through them repro and numpy) are imported
# inside functions: spawned cluster workers re-import this file, and their
# start-up is part of the measured set-up.

WORKLOADS = ("guided-large", "guided-wide", "serve-mixed")

#: End-to-end metrics and their units, printed by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "first_question_ms_p50": "ms",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "session_s_p50": "s",
    "labels_per_s": "1/s",
    "questions_per_session": "count",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer metrics and their units, printed by every traced run.  Times
#: are self time per session; see the README for what each one times.
PER_LAYER = {
    "relational.table_build_ms": "ms",
    "relational.fingerprint_ms": "ms",
    "equality_types.index_ms": "ms",
    "equality_types.combos": "count",
    "equality_types.types_per_combo": "ratio",
    "state.init_ms": "ms",
    "state.add_label_ms": "ms",
    "propagation.ids_ms": "ms",
    "propagation.pruned_per_label": "count",
    "strategies.choose_ms": "ms",
    "strategies.groups_ms": "ms",
    "strategies.tiebreak_ms": "ms",
    "kernels.prune_ms": "ms",
    "kernels.cells": "count",
    "stepper.self_ms": "ms",
    "service.self_ms": "ms",
    "persistence.serialize_ms": "ms",
    "persistence.deserialize_ms": "ms",
    "persistence.doc_bytes": "bytes",
    "persistence.save_resume_ms_p50": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "transport.send_ms": "ms",
    "transport.reply_wait_ms": "ms",
    "transport.frame_bytes": "bytes",
    "cluster.overhead_ms": "ms",
    "cluster.respawns": "count",
    "cluster.retries": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

#: How many times a run builds its set-up; ``setup_s`` is the median build.
#: A fixed count per workload (odd, so the median is one build), about
#: 1-10 s of set-up in all on a 2-vCPU host.
SETUP_REPEATS = {"guided-large": 5, "guided-wide": 201, "serve-mixed": 7}

#: A run measures whole passes until ``--seconds`` are used, and at least
#: this many, so that the median pass is taken over several and the passes'
#: trace digests are compared in every run.
MIN_PASSES = 3

#: Passes of a traced run, untraced and traced each, alternating; the
#: tracing overhead is the median over the pairs.
TRACE_PASSES = 3

#: Worker processes of the serving mix's cluster.
SERVE_WORKERS = 2


def pin_to_one_cpu() -> int:
    """Pin this process (and every process it starts) to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb(include_children: bool) -> float:
    """This process's peak RSS, plus the largest waited-for child's if asked."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
class Setup:
    """One built set-up: tables, a service (or cluster) with them registered."""

    def __init__(self, workload: str, size: str, seed: int, tracer=None) -> None:
        from workloads import build_tables

        self.workload = workload
        started = perf_counter()
        if tracer is not None:
            with tracer.span("relational.table_build"):
                self.tables = build_tables(workload, size, seed)
        else:
            self.tables = build_tables(workload, size, seed)
        self.service = self._start_service()
        for key, table in self.tables.tables.items():
            self.tables.fingerprints[key] = self.service.register_table(table)
        self.seconds = perf_counter() - started

    def _start_service(self):
        if self.workload == "serve-mixed":
            from repro.service.cluster import ClusterSessionService

            return ClusterSessionService(num_workers=SERVE_WORKERS, backend="process")
        from repro.service.service import SessionService

        return SessionService()

    def respawns(self) -> int:
        if self.workload != "serve-mixed":
            return 0
        return sum(int(state["generation"]) for state in self.service.worker_states())

    def close(self) -> None:
        if self.workload == "serve-mixed":
            self.service.shutdown()


def build_setup(workload: str, size: str, seed: int) -> tuple[Setup, list[float]]:
    """Build the set-up ``SETUP_REPEATS`` times; keep the last one.

    Each build starts from a collected heap with the previous set-up gone,
    so no build pays for another's garbage and the peak memory is one
    set-up's.  The modules a build uses are imported first, so that the
    first build does not pay for them either.
    """
    import workloads  # noqa: F401
    from repro.service import cluster, service  # noqa: F401

    timings: list[float] = []
    setup = None
    for _ in range(SETUP_REPEATS[workload]):
        if setup is not None:
            setup.close()
            setup = None
        gc.collect()
        setup = Setup(workload, size, seed)
        timings.append(setup.seconds)
    setup.tables.prepare_checks()
    return setup, timings


def plan_for(workload: str, size: str, seed: int, tables):
    from workloads import guided_plan, serve_plan

    if workload == "serve-mixed":
        return serve_plan(tables, size, seed)
    return guided_plan(workload, size, seed)


def live_sessions(workload: str) -> int:
    from workloads import LIVE_SESSIONS

    return LIVE_SESSIONS if workload == "serve-mixed" else 1


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for spawned workers."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# --------------------------------------------------------------------------- #
# Untraced run: the end-to-end metrics
# --------------------------------------------------------------------------- #
def pass_metrics(samples) -> dict[str, float]:
    """The end-to-end metrics of one pass (all but set-up and memory)."""
    return {
        "first_question_ms_p50": 1e3 * statistics.median(samples.first_question),
        "step_ms_p50": 1e3 * statistics.median(samples.steps),
        "step_ms_p90": 1e3 * p90(samples.steps),
        "session_s_p50": statistics.median(samples.sessions),
        "labels_per_s": samples.labels / samples.wall_seconds,
        "questions_per_session": samples.labels / len(samples.sessions),
    }


def measure(workload: str, size: str, seed: int, seconds: float) -> dict:
    from workloads import Driver, ServiceClient

    setup, setup_timings = build_setup(workload, size, seed)
    plan = plan_for(workload, size, seed, setup.tables)
    driver = Driver(ServiceClient(setup.service), setup.tables, plan, live_sessions(workload))
    # Whole passes over the same plan until the time is used.  Every pass
    # asks the same questions, so each metric is taken per pass and the run
    # reports the median pass: a burst of interference from outside the
    # process slows a few passes, not the median one.
    passes = []
    while len(passes) < MIN_PASSES or sum(samples.wall_seconds for samples in passes) < seconds:
        passes.append(driver.run_pass())
    respawns = setup.respawns()
    setup.close()
    if workload == "serve-mixed":
        stop_resource_tracker()
    attempted = sum(samples.attempted for samples in passes)
    failed = sum(samples.failed for samples in passes)
    errors = [error for samples in passes for error in samples.errors]
    digests = sorted({samples.digest for samples in passes})
    if respawns:
        errors.append(f"the cluster respawned {respawns} worker(s)")
    if len(digests) > 1:
        errors.append(f"passes disagree: digests {digests}")
    if respawns:
        failed = attempted
    per_pass = [pass_metrics(samples) for samples in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["setup_s"] = statistics.median(setup_timings)
    metrics["peak_rss_mb"] = peak_rss_mb(include_children=workload == "serve-mixed")
    metrics["ok_ratio"] = (attempted - failed) / attempted
    print(
        f"{workload}: {attempted} sessions in {len(passes)} pass(es) of {len(plan)}, "
        f"{sum(len(s.steps) for s in passes)} steps, {sum(s.labels for s in passes)} labels, "
        f"{sum(len(s.save_resume) for s in passes)} save/resume, "
        f"{sum(s.wall_seconds for s in passes):.2f} s measured"
    )
    print(f"{workload}: set-ups (s): {' '.join(f'{t:.3f}' for t in setup_timings[:9])}")
    print(f"{workload}: trace digest {digests[0]}")
    for error in errors[:10]:
        print(f"{workload}: error: {error}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


# --------------------------------------------------------------------------- #
# Traced run: the per-layer metrics
# --------------------------------------------------------------------------- #
def _per_session_ms(seconds: dict[str, float], key: str, sessions: int) -> float:
    return 1e3 * seconds.get(key, 0.0) / sessions


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _json_bytes(items: list) -> list[int]:
    return [len(json.dumps(item, separators=(",", ":"))) for item in items]


def measure_traced(workload: str, size: str, seed: int) -> dict:
    """Untraced and traced passes, alternating; print the layer table.

    The two sides run on set-ups of their own, and the wrappers are
    installed only while a traced pass runs, so the untraced passes run the
    library as it is.  Alternating the passes keeps a drift in the host's
    speed out of the tracing overhead.
    """
    from tracing import Tracer, below_entry_seconds, layer_seconds, self_times, tracing
    from workloads import Driver, ReplayClient, ServiceClient

    live = live_sessions(workload)
    setup = Setup(workload, size, seed)
    setup.tables.prepare_checks()
    plan = plan_for(workload, size, seed, setup.tables)
    plain = Driver(ServiceClient(setup.service), setup.tables, plan, live)

    tracer = Tracer()
    strategies = tuple({spec.strategy for spec in plan if spec.strategy})
    with tracing(tracer, strategies):
        traced_setup = Setup(workload, size, seed, tracer)
    setup_spans = len(tracer.spans)
    traced_setup.tables.prepare_checks()
    driver = Driver(ServiceClient(traced_setup.service, tracer), traced_setup.tables, plan, live)
    untraced, traced = [], []
    for _ in range(TRACE_PASSES):
        untraced.append(plain.run_pass())
        with tracing(tracer, strategies):
            traced.append(driver.run_pass())
    pass_window = range(setup_spans, len(tracer.spans))
    respawns = setup.respawns() + traced_setup.respawns()
    setup.close()
    traced_setup.close()
    replay_window = range(0)
    replayed = []
    if workload == "serve-mixed":
        # The workers' side of the same commands, in this process.
        from repro.service.service import SessionService

        stop_resource_tracker()
        documents: dict = {}
        service = SessionService(document_sink=documents.__setitem__)
        for table in traced_setup.tables.tables.values():
            service.register_table(table)
        mark = len(tracer.spans)
        driver = Driver(ReplayClient(service, documents, tracer), traced_setup.tables, plan, live)
        with tracing(tracer, strategies):
            replayed = [driver.run_pass() for _ in range(TRACE_PASSES)]
        replay_window = range(mark, len(tracer.spans))

    out = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    tracer.write(out, {"workload": workload, "seed": seed, "setup_spans": setup_spans})

    spans = tracer.spans
    sessions = sum(len(samples.sessions) for samples in traced)
    traced_calls = sum(samples.call_seconds for samples in traced)
    # Per session, from the median pass of each side; the overhead is the
    # median over the pairs of neighbouring passes.
    traced_ms = 1e3 * statistics.median(samples.call_seconds for samples in traced) / len(plan)
    untraced_ms = 1e3 * statistics.median(samples.call_seconds for samples in untraced) / len(plan)
    overhead = statistics.median(
        t.call_seconds / u.call_seconds - 1.0 for u, t in zip(untraced, traced, strict=True)
    )
    save_resume = [seconds for samples in untraced for seconds in samples.save_resume]
    worker_window = replay_window or pass_window
    worker_seconds = self_times(spans, worker_window)
    supervisor_seconds = self_times(spans, pass_window if replay_window else range(0))
    setup_seconds = self_times(spans, range(setup_spans))
    samples = tracer.samples
    frames = _json_bytes(samples["frames"])
    documents_bytes = _json_bytes(samples["documents"])
    coverage = [below_entry_seconds(spans, pass_window) / traced_calls]
    if replayed:
        replayed_calls = sum(samples.call_seconds for samples in replayed)
        coverage.append(below_entry_seconds(spans, replay_window) / replayed_calls)
    values = {
        "relational.table_build_ms": 1e3 * setup_seconds.get("relational.table_build", 0.0),
        "relational.fingerprint_ms": 1e3 * setup_seconds.get("relational.fingerprint", 0.0),
        "equality_types.combos": _mean(samples["combos"]),
        "equality_types.types_per_combo": _mean(samples["types_per_combo"]),
        "propagation.pruned_per_label": _mean(samples["pruned"]),
        "kernels.cells": _mean(samples["cells"]),
        "persistence.doc_bytes": _mean(documents_bytes),
        "persistence.save_resume_ms_p50": 1e3 * statistics.median(save_resume or [0.0]),
        "transport.frame_bytes": _mean(frames),
        "cluster.respawns": respawns,
        "cluster.retries": len(samples["retries"]),
        "trace.overhead_pct": 100.0 * overhead,
        "trace.coverage_pct": 100.0 * min(coverage),
    }
    worker_keys = (
        "equality_types.index", "state.init", "state.add_label", "propagation.ids",
        "strategies.choose", "strategies.groups", "strategies.tiebreak", "kernels.prune",
        "stepper.self", "service.self", "persistence.serialize", "persistence.deserialize",
        "wire.encode",
    )
    for key in worker_keys:
        values[f"{key}_ms"] = _per_session_ms(worker_seconds, key, sessions)
    for key in ("wire.decode", "transport.send", "transport.reply_wait", "cluster.overhead"):
        values[f"{key}_ms"] = _per_session_ms(supervisor_seconds, key, sessions)

    print(f"{workload}: traced {sessions} sessions; spans written to {out.relative_to(ROOT)}")
    digests = {samples.digest for samples in untraced + traced + replayed}
    print(f"{workload}: trace digest(s) of every pass, traced or not: {' '.join(sorted(digests))}")
    if replay_window:
        print_layer_table(workload, layer_seconds(spans, replay_window), sessions, "worker side")
        print_layer_table(workload, layer_seconds(spans, pass_window), sessions, "supervisor side")
    else:
        print_layer_table(workload, layer_seconds(spans, pass_window), sessions, "")
    print_split(workload, spans, pass_window, replay_window)
    for side, passes in (("untraced", untraced), ("traced", traced)):
        per_pass = " ".join(f"{1e3 * p.call_seconds / len(plan):.2f}" for p in passes)
        print(f"{workload}: {side} passes, ms/session: {per_pass}")
    print(
        f"{workload}: tracing overhead {values['trace.overhead_pct']:+.1f}% "
        f"(median pass: traced {traced_ms:.2f} ms/session vs untraced {untraced_ms:.2f})"
    )
    sides = ("supervisor", "worker") if replayed else ("service",)
    shares = ", ".join(f"{side} {100.0 * c:.2f}%" for side, c in zip(sides, coverage, strict=True))
    print(
        f"{workload}: coverage {values['trace.coverage_pct']:.2f}% ({shares}) of the time "
        f"in top-level calls is inside a layer below the entry call"
    )
    runs = untraced + traced + replayed
    attempted = sum(samples.attempted for samples in runs)
    failed = sum(samples.failed for samples in runs)
    correct = failed == 0 and len(digests) == 1 and respawns == 0
    for error in [error for samples in runs for error in samples.errors][:10]:
        print(f"{workload}: error: {error}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def print_layer_table(workload: str, seconds: dict[str, float], sessions: int, side: str) -> None:
    from tracing import LAYERS

    total = sum(seconds.values()) or 1.0
    title = f" ({side})" if side else ""
    print(f"{workload}: self time per layer{title}, ms/session and share")
    for layer in LAYERS:
        if seconds.get(layer):
            share = 100.0 * seconds[layer] / total
            print(f"  {layer:<15} {1e3 * seconds[layer] / sessions:12.3f}  {share:6.1f}%")


def print_split(workload: str, spans: list[list], pass_window: range, replay_window: range) -> None:
    """The layer shares the benchmark's README predicts, as measured."""
    from tracing import layer_seconds

    if not replay_window:
        layers = layer_seconds(spans, pass_window)
        total = sum(layers.values()) or 1.0
        core = 100.0 * (layers.get("equality_types", 0.0) + layers.get("state", 0.0)) / total
        kernels = 100.0 * layers.get("kernels", 0.0) / total
        print(
            f"{workload}: split: equality_types+state {core:.1f}% of session time, "
            f"kernels {kernels:.1f}%"
        )
        return
    # Step time on the cluster: the supervisor's own layers, the reply wait
    # minus the worker's compute (the worker's transport), and the worker's
    # serving layers as replayed in-process.
    supervisor = layer_seconds(spans, pass_window, op="step")
    worker = layer_seconds(spans, replay_window, op="step")
    send = sum(
        spans[i][2] - spans[i][1]
        for i in pass_window
        if spans[i][5] == "step" and spans[i][0] == "transport.send"
    )
    reply_wait = supervisor.get("transport", 0.0) - send
    serving = (
        supervisor.get("cluster", 0.0)
        + supervisor.get("wire", 0.0)
        + send
        + max(0.0, reply_wait - sum(worker.values()))
        + sum(worker.get(layer, 0.0) for layer in ("service", "persistence", "wire"))
    )
    step_total = sum(supervisor.values()) or 1.0
    print(
        f"{workload}: split: service+persistence+wire+transport+cluster "
        f"{100.0 * serving / step_total:.1f}% of cluster step time"
    )


# --------------------------------------------------------------------------- #
# Self-test and entry point
# --------------------------------------------------------------------------- #
def _check_result(completed: subprocess.CompletedProcess, expected: dict, trace: int) -> list[str]:
    """What is wrong with one run's output: exit code, metrics, units, correctness."""
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return [f"exit {completed.returncode}\n{completed.stderr}"]
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    problems = []
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(expected))}")
    problems += [
        f"{name} has unit {metrics[name].get('unit')!r}, not {unit!r}"
        for name, unit in expected.items()
        if name in metrics and metrics[name].get("unit") != unit
    ]
    if not result["correct"] or result["failed"]:
        problems.append(f"not correct\n{completed.stdout}")
    if trace == 0 and metrics.get("ok_ratio", {}).get("value") != 1.0:
        problems.append(f"ok_ratio is {metrics.get('ok_ratio')}")
    return problems


def self_test() -> int:
    """Every workload at tiny size, untraced and traced, each in its own process."""
    failures: list[str] = []
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            name = f"{workload} trace={trace}"
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=170, check=False
            )
            problems = _check_result(completed, expected, trace)
            failures.extend(f"{name}: {problem}" for problem in problems)
            print(f"self-test {name}: {'FAILED' if problems else 'ok'}")
    for failure in failures:
        print(f"self-test: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    cpu = pin_to_one_cpu()
    print(f"perfbench: pinned to cpu {cpu} (worker processes inherit it)")
    if args.trace:
        result = measure_traced(args.workload, args.size, args.seed)
    else:
        result = measure(args.workload, args.size, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
