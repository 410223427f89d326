"""Benchmark: the sans-IO stepper adapter vs the pre-redesign inline loop.

Since the service redesign, ``JoinInferenceEngine.run`` no longer owns the
interactive loop — it steps an
:class:`~repro.service.stepper.InferenceSession` and feeds it oracle answers.
This benchmark keeps a faithful copy of the engine's former inline loop
(``_DirectEngine`` below, the pre-redesign ``run``) and checks two things on
the scalability workload:

1. **Observational equivalence** — the stepper-driven engine asks about the
   same tuples in the same order, receives the same labels, and infers the
   same query as the inline loop, for every strategy family.
2. **Overhead** — the event/command indirection costs < 5 % end-to-end
   wall-clock on the ``lookahead-entropy`` scalability run (the protocol adds
   a few attribute accesses per interaction; the work per interaction is the
   strategy's scoring sweep, which dwarfs them).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_stepper_overhead.py           # asserts < 5%
    PYTHONPATH=src python benchmarks/bench_stepper_overhead.py --quick   # CI smoke

With ``--record``, runs append their measurements to
``benchmarks/results/BENCH_stepper_overhead.json`` (keyed by git commit +
config hash; see :mod:`repro.experiments.trajectory`); ``--compare`` diffs
the fresh throughput ratio against the latest recorded same-config baseline.
Exit status is non-zero on a trace mismatch, a ``--compare`` regression, or
(in full mode) when the overhead exceeds the 5 % acceptance gate.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro import GoalQueryOracle, JoinInferenceEngine
from repro.core.engine import InferenceResult, InferenceTrace, Interaction
from repro.core.state import InferenceState
from repro.core.strategies.registry import create_strategy
from repro.datasets.workloads import figure1_workload
from repro.experiments.scalability import scalability_workloads
from repro.experiments.trajectory import compare_to_trajectory, record_benchmark

RESULTS_DIR = Path(__file__).resolve().parent / "results"


class _DirectEngine(JoinInferenceEngine):
    """The pre-redesign engine: the interactive loop inlined in ``run``."""

    def run(self, oracle, max_interactions=None, initial_state=None, require_convergence=False):
        self.strategy.reset()
        state = initial_state if initial_state is not None else self.new_state()
        trace = InferenceTrace()
        step = 0
        while state.has_informative_tuple():
            if max_interactions is not None and step >= max_interactions:
                return InferenceResult(
                    query=state.inferred_query(),
                    trace=trace,
                    state=state,
                    converged=False,
                    strategy_name=self.strategy.name,
                )
            choose_started = time.perf_counter()
            tuple_id = self.strategy.choose(state)
            choose_seconds = time.perf_counter() - choose_started
            label = oracle.label(self.table, tuple_id)
            propagate_started = time.perf_counter()
            propagation = state.add_label(tuple_id, label)
            elapsed = choose_seconds + (time.perf_counter() - propagate_started)
            step += 1
            trace.propagations.append(propagation)
            trace.interactions.append(
                Interaction(
                    step=step,
                    tuple_id=tuple_id,
                    label=label,
                    pruned=propagation.pruned_count,
                    informative_remaining=propagation.informative_after,
                    elapsed_seconds=elapsed,
                )
            )
        return InferenceResult(
            query=state.inferred_query(),
            trace=trace,
            state=state,
            converged=True,
            strategy_name=self.strategy.name,
        )


def _run(workload, strategy_name: str, direct: bool):
    engine_cls = _DirectEngine if direct else JoinInferenceEngine
    engine = engine_cls(workload.table, strategy=create_strategy(strategy_name, seed=7))
    initial = InferenceState(workload.table, universe=engine.universe)
    oracle = GoalQueryOracle(workload.goal)
    started = time.perf_counter()
    result = engine.run(oracle, initial_state=initial)
    wall = time.perf_counter() - started
    return result, wall


def _trace_signature(result):
    return (
        [
            (i.tuple_id, i.label.value, i.pruned, i.informative_remaining)
            for i in result.trace.interactions
        ],
        result.query.normalized().describe(),
        result.converged,
    )


def check_equivalence(quick: bool) -> list[str]:
    """Stepper-driven and inline loops must produce identical traces."""
    sizes = (6, 10) if quick else (10, 20)
    scenarios = [(f"figure1/{q}", figure1_workload(q)) for q in ("q1", "q2")]
    scenarios += [
        (f"scalability/{w.num_candidates}", w)
        for w in scalability_workloads(tuples_per_relation=sizes, goal_atoms=2, seed=0)
    ]
    strategies = [
        "random",
        "local-lexicographic",
        "local-most-specific",
        "local-largest-type",
        "lookahead-expected",
        "lookahead-entropy",
    ]
    mismatches = []
    for scenario_name, workload in scenarios:
        for name in strategies:
            stepper_result, _ = _run(workload, name, direct=False)
            direct_result, _ = _run(workload, name, direct=True)
            if _trace_signature(stepper_result) != _trace_signature(direct_result):
                mismatches.append(f"{scenario_name} × {name}")
    return mismatches


def measure_overhead(quick: bool, repeats: int) -> dict:
    """End-to-end lookahead-entropy runtime, inline loop vs stepper adapter."""
    # Big enough that one run takes hundreds of milliseconds — a 5% gate on
    # a tens-of-ms run would be measuring timer noise, not the adapter.
    size = 20 if quick else 100
    workload = scalability_workloads(tuples_per_relation=(size,), goal_atoms=2, seed=0)[0]

    def timed(direct: bool) -> float:
        result, wall = _run(workload, "lookahead-entropy", direct=direct)
        assert result.matches_goal(workload.goal)
        return wall

    # Warm up both paths, then measure them interleaved so a transient load
    # spike hits both sides rather than biasing one.
    timed(direct=True)
    timed(direct=False)
    direct_walls, stepper_walls = [], []
    for _ in range(repeats):
        direct_walls.append(timed(direct=True))
        stepper_walls.append(timed(direct=False))
    # Median, not min: with two separately-minimised noisy samples the gate
    # would measure which side got the single luckiest run.
    direct_wall = statistics.median(direct_walls)
    stepper_wall = statistics.median(stepper_walls)
    return {
        "candidates": workload.num_candidates,
        "direct_wall": direct_wall,
        "stepper_wall": stepper_wall,
        "overhead_pct": 100.0 * (stepper_wall - direct_wall) / direct_wall,
        # Higher-is-better form of the overhead, for trajectory comparison.
        "throughput_ratio": direct_wall / stepper_wall if stepper_wall else float("inf"),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: small sizes, no overhead assertion"
    )
    parser.add_argument("--repeats", type=int, default=11, help="timing repetitions (median-of)")
    parser.add_argument(
        "--record",
        action="store_true",
        help="append this run to benchmarks/results/BENCH_stepper_overhead.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="fail on regressions vs the latest recorded same-config baseline",
    )
    args = parser.parse_args(argv)

    print("== trace equivalence: stepper-driven engine vs inline loop ==")
    mismatches = check_equivalence(args.quick)
    if mismatches:
        print(f"FAIL: {len(mismatches)} diverging scenario(s):")
        for item in mismatches:
            print(f"  - {item}")
        return 1
    print("ok: identical interaction traces on all scenarios")

    print("\n== stepper overhead (lookahead-entropy, scalability workload) ==")
    stats = measure_overhead(args.quick, max(1, args.repeats))
    print(f"candidate tuples:   {stats['candidates']}")
    print(f"inline-loop wall:   {stats['direct_wall']:.4f}s")
    print(f"stepper wall:       {stats['stepper_wall']:.4f}s")
    print(f"overhead:           {stats['overhead_pct']:+.2f}%")

    if not args.quick and stats["overhead_pct"] >= 5.0:
        print("FAIL: stepper adapter overhead above the 5% acceptance gate")
        return 1

    config = {"quick": args.quick, "repeats": max(1, args.repeats)}
    if args.compare:
        regressions, baseline = compare_to_trajectory(
            "stepper_overhead", RESULTS_DIR, config, stats, ["throughput_ratio"]
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
        path = record_benchmark("stepper_overhead", config, stats, RESULTS_DIR)
        print(f"recorded trajectory: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
