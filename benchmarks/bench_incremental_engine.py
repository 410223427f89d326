"""Benchmark: the incremental propagation engine vs its two predecessors.

Two baselines are kept inline, faithfully, as the implementations under
measurement:

* ``_SeedState`` — the seed implementation, which recomputed everything per
  interaction: ``add_label`` rebuilt the :class:`ConsistentQuerySpace` from
  the full example set and ran ``classify_all`` over the whole table twice,
  and ``prune_counts`` re-derived the informative-type list independently for
  every candidate tuple.
* ``_DictState`` — the pre-kernel *incremental* engine: delta space updates
  and a per-type table, but with the table held in Python dicts, the
  prune counts computed by a scalar loop per distinct candidate type, and the
  lookahead driver iterating every informative tuple id per step.

The current engine keeps the type state in flat arrays
(:mod:`repro.core.kernels`) and scores all candidates in one batched kernel
call per step.  The benchmark measures both gaps — seed → incremental at the
interactive scale (45² candidates, ≥5×) and dict → kernels at the
setup scale (320² ≈ 10⁵ candidates, ≥10×) — and checks *observational
equivalence*: on every scenario all engines must ask about the same tuples
in the same order, receive the same labels, and infer the same query.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_incremental_engine.py           # full: asserts >=5x and >=10x
    PYTHONPATH=src python benchmarks/bench_incremental_engine.py --quick   # CI smoke

With ``--record``, runs append their measurements to
``benchmarks/results/BENCH_incremental_engine.json`` (keyed by git commit +
config hash; see :mod:`repro.experiments.trajectory`), building the
repository's performance trajectory.  Exit status is non-zero
when trace equivalence fails, or (in full mode) when either speedup gate
falls below its target.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy

from repro import GoalQueryOracle, JoinInferenceEngine
from repro.core.atoms import is_subset, popcount
from repro.core.examples import Label
from repro.core.informativeness import classify_all, classify_tuple
from repro.core.propagation import diff_statuses
from repro.core.space import ConsistentQuerySpace
from repro.core.state import InferenceState
from repro.core.strategies.base import Strategy
from repro.core.strategies.lookahead import (
    EntropyStrategy,
    ExpectedPruneStrategy,
    KStepLookaheadStrategy,
    MinMaxPruneStrategy,
)
from repro.core.strategies.registry import create_strategy
from repro.datasets.workloads import figure1_workload
from repro.exceptions import InconsistentLabelError
from repro.experiments.scalability import scalability_workloads
from repro.experiments.trajectory import compare_to_trajectory, record_benchmark


# --------------------------------------------------------------------------- #
# The seed implementation, kept verbatim as the baseline under measurement
# --------------------------------------------------------------------------- #
class _SeedState(InferenceState):
    """The seed's ``InferenceState``: rebuild-from-scratch on every label."""

    def add_label(self, tuple_id, label):
        parsed = Label.from_value(label)
        if tuple_id not in self.table.tuple_ids:
            raise InconsistentLabelError(f"unknown tuple id {tuple_id}")
        before = self.statuses()
        status_before = before[tuple_id]
        if self.strict and status_before.implied_label not in (None, parsed):
            raise InconsistentLabelError(
                f"tuple {tuple_id} is {status_before.value}; labeling it {parsed.value!r} "
                "would contradict the labels given so far"
            )
        self.examples.add(tuple_id, parsed)
        self.space = ConsistentQuerySpace(self.type_index, self.examples)
        consistent = self.space.is_consistent()
        after = self.statuses()
        return diff_statuses(before, after, tuple_id, parsed, consistent=consistent)

    def status(self, tuple_id):
        return classify_tuple(self.space, self.examples, tuple_id)

    def statuses(self):
        return classify_all(self.space, self.examples)

    def informative_ids(self):
        from repro.core.informativeness import TupleStatus

        return [
            tuple_id
            for tuple_id, status in self.statuses().items()
            if status is TupleStatus.INFORMATIVE
        ]

    def certain_ids(self):
        return [tuple_id for tuple_id, status in self.statuses().items() if status.is_certain]

    def has_informative_tuple(self):
        labeled = self.examples.labeled_ids
        for mask in self.type_index.distinct_masks:
            if self.space.certain_label_for(mask) is not None:
                continue
            if any(tid not in labeled for tid in self.type_index.tuples_with_mask(mask)):
                return True
        return False

    def informative_type_snapshot(self):
        labeled = self.examples.labeled_ids
        snapshot = []
        for mask in self.type_index.distinct_masks:
            if self.space.certain_label_for(mask) is not None:
                continue
            count = sum(1 for tid in self.type_index.tuples_with_mask(mask) if tid not in labeled)
            if count:
                snapshot.append((mask, count))
        return snapshot

    def prune_counts(self, tuple_id):
        # Seed behavior: the informative-type list is re-derived per call.
        from repro.core.atoms import is_subset

        positive_mask = self.space.positive_mask
        negative_masks = self.space.negative_masks
        candidate_type = self.type_index.mask(tuple_id)
        informative_types = self.informative_type_snapshot()
        new_positive_mask = positive_mask & candidate_type
        resolved_if_positive = 0
        resolved_if_negative = 0
        for mask, count in informative_types:
            restricted = new_positive_mask & mask
            certain_positive = is_subset(new_positive_mask, mask)
            certain_negative = any(is_subset(restricted, neg) for neg in negative_masks)
            if certain_positive or certain_negative:
                resolved_if_positive += count
            if is_subset(positive_mask & mask, candidate_type):
                resolved_if_negative += count
        return resolved_if_positive, resolved_if_negative

    def prune_counts_all(self, tuple_ids=None):
        candidates = list(tuple_ids) if tuple_ids is not None else self.informative_ids()
        return {tuple_id: self.prune_counts(tuple_id) for tuple_id in candidates}

    def copy(self):
        clone = _SeedState.__new__(_SeedState)
        clone.table = self.table
        clone.universe = self.universe
        clone.type_index = self.type_index
        clone.examples = self.examples.copy()
        clone.strict = self.strict
        clone.space = ConsistentQuerySpace(self.type_index, clone.examples)
        return clone


class _SeedScoredStrategy(Strategy):
    """The seed's scored-lookahead driver: per-candidate ``prune_counts``."""

    def __init__(self, template) -> None:
        self._template = template
        self.name = template.name

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        best_id = None
        best_key = (-math.inf, 0)
        for tuple_id in candidates:
            resolved_plus, resolved_minus = state.prune_counts(tuple_id)
            key = (self._template.score(resolved_plus, resolved_minus), -tuple_id)
            if key > best_key:
                best_key = key
                best_id = tuple_id
        assert best_id is not None
        return best_id


class _SeedKStepStrategy(KStepLookaheadStrategy):
    """The seed's k-step lookahead, pinned in full.

    The current implementation is type-level (batched beam scoring, cached
    informative counts through the recursion); this subclass restores the
    original per-candidate beam and the per-depth ``informative_ids``
    re-derivation so the baseline stays the seed's code.
    """

    def _beam(self, state, candidates=None):
        if candidates is None:
            candidates = state.informative_ids()
        scored = sorted(
            candidates,
            key=lambda tid: (min(state.prune_counts(tid)), -tid),
            reverse=True,
        )
        return scored[: self.beam_width]

    def _worst_case_remaining(self, state, tuple_id, depth):
        worst = 0
        for label in (Label.POSITIVE, Label.NEGATIVE):
            outcome = state.simulate_label(tuple_id, label)
            remaining = outcome.informative_ids()
            if depth <= 1 or not remaining:
                value = len(remaining)
            else:
                value = min(
                    self._worst_case_remaining(outcome, next_id, depth - 1)
                    for next_id in self._beam(outcome, remaining)
                )
            worst = max(worst, value)
        return worst

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        beam = self._beam(state, candidates)
        return min(
            beam,
            key=lambda tid: (self._worst_case_remaining(state, tid, self.depth), tid),
        )


class _SeedLargestTypeStrategy(Strategy):
    """The seed's largest-type choice: per-candidate frequency counting."""

    name = "local-largest-type"

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        positive_mask = state.space.positive_mask
        type_index = state.type_index
        frequency = {}
        for tuple_id in candidates:
            restricted = type_index.mask(tuple_id) & positive_mask
            frequency[restricted] = frequency.get(restricted, 0) + 1
        return max(
            candidates,
            key=lambda tid: (frequency[type_index.mask(tid) & positive_mask], -tid),
        )


class _SeedLexicographicStrategy(Strategy):
    """The seed's lexicographic choice: min over materialised candidate ids."""

    name = "local-lexicographic"

    def choose(self, state):
        return min(self._informative_or_raise(state))


class _SeedMostSpecificStrategy(Strategy):
    """The seed's most-specific choice: per-candidate popcount key."""

    name = "local-most-specific"

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        positive_mask = state.space.positive_mask
        type_index = state.type_index
        return max(
            candidates,
            key=lambda tid: (popcount(type_index.mask(tid) & positive_mask), -tid),
        )


class _SeedMostGeneralStrategy(Strategy):
    """The seed's most-general choice: per-candidate popcount key."""

    name = "local-most-general"

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        positive_mask = state.space.positive_mask
        type_index = state.type_index
        return min(
            candidates,
            key=lambda tid: (popcount(type_index.mask(tid) & positive_mask), tid),
        )


_SEED_TEMPLATES = {
    ExpectedPruneStrategy.name: lambda: _SeedScoredStrategy(ExpectedPruneStrategy()),
    MinMaxPruneStrategy.name: lambda: _SeedScoredStrategy(MinMaxPruneStrategy()),
    EntropyStrategy.name: lambda: _SeedScoredStrategy(EntropyStrategy()),
    KStepLookaheadStrategy.name: _SeedKStepStrategy,
    _SeedLargestTypeStrategy.name: _SeedLargestTypeStrategy,
    _SeedLexicographicStrategy.name: _SeedLexicographicStrategy,
    _SeedMostSpecificStrategy.name: _SeedMostSpecificStrategy,
    _SeedMostGeneralStrategy.name: _SeedMostGeneralStrategy,
}


def _seed_strategy(name: str, seed: int = 0) -> Strategy:
    factory = _SEED_TEMPLATES.get(name)
    if factory is not None:
        return factory()
    # Strategies without choice machinery of their own (random) share their
    # code with the seed; running them over a _SeedState reproduces the seed
    # behavior exactly.
    return create_strategy(name, seed=seed)


# --------------------------------------------------------------------------- #
# The pre-kernel incremental engine: dict type table, scalar prune counts
# --------------------------------------------------------------------------- #
class _DictTypeTable:
    """The pre-kernel type table: plain dicts, O(#types) copies.

    It keeps the interface of :class:`~repro.core.kernels.TypeTable` that
    :class:`InferenceState` calls, so ``add_label``/``status``/``copy`` run
    on it unchanged.
    """

    def __init__(self, space, examples):
        type_index = space.type_index
        self._certain = {
            mask: space.certain_label_for(mask) for mask in type_index.distinct_masks
        }
        self._unlabeled = dict(type_index.type_sizes())
        for tuple_id in examples.labeled_ids:
            self._unlabeled[type_index.mask(tuple_id)] -= 1

    def certain_of(self, type_mask):
        return self._certain[type_mask]

    def unlabeled_of(self, type_mask):
        return self._unlabeled[type_mask]

    def informative_items(self):
        return [
            (mask, self._unlabeled[mask])
            for mask, certain in self._certain.items()
            if certain is None and self._unlabeled[mask]
        ]

    def informative_arrays(self):
        items = self.informative_items()
        return (
            numpy.asarray([mask for mask, _ in items], dtype=numpy.int64),
            numpy.asarray([count for _, count in items], dtype=numpy.int64),
        )

    def informative_count(self):
        return sum(count for _, count in self.informative_items())

    def has_informative(self):
        return bool(self.informative_items())

    def decrement_unlabeled(self, type_mask):
        self._unlabeled[type_mask] -= 1

    def refresh_certain(self, positive_mask, negative_masks, only_unknown=True):
        flipped_positive, flipped_negative = [], []
        if only_unknown:
            stale = [mask for mask, certain in self._certain.items() if certain is None]
        else:
            stale = list(self._certain)
        for mask in stale:
            was = self._certain[mask]
            if is_subset(positive_mask, mask):
                now = True
            elif any(is_subset(positive_mask & mask, neg) for neg in negative_masks):
                now = False
            else:
                now = None
            if was is not now:
                self._certain[mask] = now
                if was is None and now is True:
                    flipped_positive.append(mask)
                elif was is None and now is False:
                    flipped_negative.append(mask)
        return flipped_positive, flipped_negative

    def copy(self):
        clone = _DictTypeTable.__new__(_DictTypeTable)
        clone._certain = dict(self._certain)
        clone._unlabeled = dict(self._unlabeled)
        return clone


class _DictState(InferenceState):
    """The pre-kernel incremental state: delta updates over the dict cache.

    ``add_label``/``status``/``copy`` are inherited and run on the dict
    table, which keeps the type table's interface.  Only the construction
    and the scalar prune-count path are pinned here.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.type_table = _DictTypeTable(self.space, self.examples)

    def prune_counts(self, tuple_id):
        snapshot = self.informative_type_snapshot()
        restricted = self.type_index.mask(tuple_id) & self.space.positive_mask
        return self._prune_counts_for_restricted_type(restricted, snapshot)

    def prune_counts_all(self, tuple_ids=None):
        candidates = list(tuple_ids) if tuple_ids is not None else self.informative_ids()
        snapshot = self.informative_type_snapshot()
        positive_mask = self.space.positive_mask
        by_restricted_type = {}
        counts = {}
        for tuple_id in candidates:
            restricted = self.type_index.mask(tuple_id) & positive_mask
            if restricted not in by_restricted_type:
                by_restricted_type[restricted] = self._prune_counts_for_restricted_type(
                    restricted, snapshot
                )
            counts[tuple_id] = by_restricted_type[restricted]
        return counts

    def _prune_counts_for_restricted_type(self, restricted_candidate, snapshot):
        positive_mask = self.space.positive_mask
        negative_masks = self.space.negative_masks
        new_positive_mask = positive_mask & restricted_candidate
        resolved_if_positive = 0
        resolved_if_negative = 0
        for mask, count in snapshot:
            restricted = new_positive_mask & mask
            certain_positive = is_subset(new_positive_mask, mask)
            certain_negative = any(is_subset(restricted, neg) for neg in negative_masks)
            if certain_positive or certain_negative:
                resolved_if_positive += count
            if is_subset(positive_mask & mask, restricted_candidate):
                resolved_if_negative += count
        return resolved_if_positive, resolved_if_negative


class _DictScoredStrategy(Strategy):
    """The pre-kernel lookahead driver: every informative tuple id, scored."""

    def __init__(self, template) -> None:
        self._template = template
        self.name = template.name

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        counts = state.prune_counts_all(candidates)
        best_id = None
        best_key = (-math.inf, 0)
        for tuple_id in candidates:
            resolved_plus, resolved_minus = counts[tuple_id]
            key = (self._template.score(resolved_plus, resolved_minus), -tuple_id)
            if key > best_key:
                best_key = key
                best_id = tuple_id
        assert best_id is not None
        return best_id


class _DictKStepStrategy(KStepLookaheadStrategy):
    """The pre-kernel k-step lookahead: per-candidate beam over shared counts."""

    def _beam(self, state, candidates=None):
        if candidates is None:
            candidates = state.informative_ids()
        counts = state.prune_counts_all(candidates)
        scored = sorted(
            candidates,
            key=lambda tid: (min(counts[tid]), -tid),
            reverse=True,
        )
        return scored[: self.beam_width]

    def _worst_case_remaining(self, state, tuple_id, depth):
        worst = 0
        for label in (Label.POSITIVE, Label.NEGATIVE):
            outcome = state.simulate_label(tuple_id, label)
            remaining = outcome.informative_ids()
            if depth <= 1 or not remaining:
                value = len(remaining)
            else:
                value = min(
                    self._worst_case_remaining(outcome, next_id, depth - 1)
                    for next_id in self._beam(outcome, remaining)
                )
            worst = max(worst, value)
        return worst

    def choose(self, state):
        candidates = self._informative_or_raise(state)
        beam = self._beam(state, candidates)
        return min(
            beam,
            key=lambda tid: (self._worst_case_remaining(state, tid, self.depth), tid),
        )


_DICT_TEMPLATES = {
    ExpectedPruneStrategy.name: lambda: _DictScoredStrategy(ExpectedPruneStrategy()),
    MinMaxPruneStrategy.name: lambda: _DictScoredStrategy(MinMaxPruneStrategy()),
    EntropyStrategy.name: lambda: _DictScoredStrategy(EntropyStrategy()),
    KStepLookaheadStrategy.name: _DictKStepStrategy,
}


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def _run(workload, strategy: Strategy, state_cls: type = InferenceState):
    engine = JoinInferenceEngine(workload.table, strategy=strategy)
    initial = state_cls(workload.table, universe=engine.universe)
    oracle = GoalQueryOracle(workload.goal)
    started = time.perf_counter()
    result = engine.run(oracle, initial_state=initial)
    wall = time.perf_counter() - started
    return result, wall


def _trace_signature(result):
    return (
        [(i.tuple_id, i.label.value, i.pruned, i.informative_remaining) for i in result.trace.interactions],
        result.query.normalized().describe(),
        result.converged,
    )


def check_equivalence(quick: bool) -> list[str]:
    """All engines must produce identical traces on every scenario.

    The current engine must match the seed engine, and for the strategies
    the dict engine implements, the dict engine too.
    """
    sizes = (6, 10) if quick else (10, 20, 30)
    scenarios = [(f"figure1/{q}", figure1_workload(q)) for q in ("q1", "q2")]
    scenarios += [
        (f"scalability/{w.num_candidates}", w)
        for w in scalability_workloads(tuples_per_relation=sizes, goal_atoms=2, seed=0)
    ]
    strategies = [
        "random",
        "local-lexicographic",
        "local-most-specific",
        "local-most-general",
        "local-largest-type",
        "lookahead-expected",
        "lookahead-minmax",
        "lookahead-entropy",
    ]
    if not quick:
        strategies.append("lookahead-kstep")
    mismatches = []
    for scenario_name, workload in scenarios:
        for name in strategies:
            if name == "lookahead-kstep" and workload.num_candidates > 150:
                continue  # the seed k-step is too slow beyond toy sizes
            legacy, _ = _run(workload, _seed_strategy(name, seed=7), _SeedState)
            reference = _trace_signature(legacy)
            incremental, _ = _run(workload, create_strategy(name, seed=7))
            if _trace_signature(incremental) != reference:
                mismatches.append(f"{scenario_name} × {name}")
            if name in _DICT_TEMPLATES:
                dict_result, _ = _run(workload, _DICT_TEMPLATES[name](), _DictState)
                if _trace_signature(dict_result) != reference:
                    mismatches.append(f"{scenario_name} × {name} [dict]")
    return mismatches


def measure_speedup(quick: bool, repeats: int) -> dict:
    """End-to-end lookahead-entropy runtime, seed vs incremental."""
    size = 20 if quick else 45
    workload = scalability_workloads(tuples_per_relation=(size,), goal_atoms=2, seed=0)[0]

    def best_of(seed_state: bool) -> tuple[float, float]:
        walls, engine_seconds = [], []
        for _ in range(repeats):
            strategy = (
                _seed_strategy("lookahead-entropy")
                if seed_state
                else create_strategy("lookahead-entropy")
            )
            result, wall = _run(
                workload, strategy, _SeedState if seed_state else InferenceState
            )
            assert result.matches_goal(workload.goal)
            walls.append(wall)
            engine_seconds.append(result.trace.total_seconds)
        return min(walls), min(engine_seconds)

    seed_wall, seed_engine = best_of(seed_state=True)
    incr_wall, incr_engine = best_of(seed_state=False)
    return {
        "candidates": workload.num_candidates,
        "seed_wall": seed_wall,
        "incremental_wall": incr_wall,
        "wall_speedup": seed_wall / incr_wall if incr_wall else float("inf"),
        "seed_engine": seed_engine,
        "incremental_engine": incr_engine,
        "engine_speedup": seed_engine / incr_engine if incr_engine else float("inf"),
    }


def measure_kernel_speedup(quick: bool, repeats: int) -> dict:
    """Lookahead-entropy at the 10⁵-candidate scale: dict engine vs kernels.

    The dict engine predates the kernels: its hot loop is Python dicts and
    scalar loops.  Both must produce byte-identical traces — the speedup
    only counts if the answers are the same.
    """
    size = 60 if quick else 320
    workload = scalability_workloads(
        tuples_per_relation=(size,), goal_atoms=2, seed=0, max_candidate_rows=None
    )[0]

    def best_of(dict_state: bool):
        walls, engine_seconds, signature = [], [], None
        for _ in range(repeats):
            if dict_state:
                result, wall = _run(workload, _DictScoredStrategy(EntropyStrategy()), _DictState)
            else:
                result, wall = _run(workload, create_strategy("lookahead-entropy"))
            assert result.matches_goal(workload.goal)
            signature = _trace_signature(result)
            walls.append(wall)
            engine_seconds.append(result.trace.total_seconds)
        return min(walls), min(engine_seconds), signature

    dict_wall, dict_engine, dict_signature = best_of(dict_state=True)
    kernel_wall, kernel_engine, kernel_signature = best_of(dict_state=False)
    assert dict_signature == kernel_signature, (
        "dict and kernel engines diverged on the kernel-speedup workload"
    )
    return {
        "candidates": workload.num_candidates,
        "dict_wall": dict_wall,
        "kernel_wall": kernel_wall,
        "wall_speedup": dict_wall / kernel_wall if kernel_wall else float("inf"),
        "dict_engine": dict_engine,
        "kernel_engine": kernel_engine,
        "engine_speedup": dict_engine / kernel_engine if kernel_engine else float("inf"),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: small sizes, no speedup assertions"
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best-of)")
    parser.add_argument(
        "--record",
        action="store_true",
        help="append this run to benchmarks/results/BENCH_incremental_engine.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="fail on regressions vs the latest recorded same-config baseline",
    )
    args = parser.parse_args(argv)
    repeats = max(1, args.repeats)

    print("== trace equivalence: incremental engine vs seed implementation ==")
    mismatches = check_equivalence(args.quick)
    if mismatches:
        print(f"FAIL: {len(mismatches)} diverging scenario(s):")
        for item in mismatches:
            print(f"  - {item}")
        return 1
    print("ok: identical interaction traces on all scenarios")

    print("\n== end-to-end speedup (lookahead-entropy, seed vs incremental) ==")
    stats = measure_speedup(args.quick, repeats)
    print(f"candidate tuples:        {stats['candidates']}")
    print(f"seed wall time:          {stats['seed_wall']:.4f}s")
    print(f"incremental wall time:   {stats['incremental_wall']:.4f}s")
    print(f"wall-clock speedup:      {stats['wall_speedup']:.1f}x")
    print(f"seed engine time:        {stats['seed_engine']:.4f}s")
    print(f"incremental engine time: {stats['incremental_engine']:.4f}s")
    print(f"engine-time speedup:     {stats['engine_speedup']:.1f}x")

    print("\n== kernel speedup (lookahead-entropy, dict engine vs kernels) ==")
    kernel_stats = measure_kernel_speedup(args.quick, repeats)
    print(f"candidate tuples:        {kernel_stats['candidates']}")
    print(f"dict-engine wall time:   {kernel_stats['dict_wall']:.4f}s")
    print(f"kernel wall time:        {kernel_stats['kernel_wall']:.4f}s")
    print(f"wall-clock speedup:      {kernel_stats['wall_speedup']:.1f}x")
    print(f"dict engine time:        {kernel_stats['dict_engine']:.4f}s")
    print(f"kernel engine time:      {kernel_stats['kernel_engine']:.4f}s")
    print(f"engine-time speedup:     {kernel_stats['engine_speedup']:.1f}x")

    failed = False
    if not args.quick and stats["wall_speedup"] < 5.0:
        print("FAIL: seed→incremental wall-clock speedup below the 5x acceptance target")
        failed = True
    if not args.quick and kernel_stats["wall_speedup"] < 10.0:
        print("FAIL: dict→kernel wall-clock speedup below the 10x acceptance target")
        failed = True
    if failed:
        return 1

    config = {"quick": args.quick, "repeats": repeats}
    results = {"seed_gate": stats, "kernel_gate": kernel_stats}
    if args.compare:
        regressions, baseline = compare_to_trajectory(
            "incremental_engine",
            Path(__file__).resolve().parent / "results",
            config,
            results,
            ["seed_gate.wall_speedup", "kernel_gate.wall_speedup"],
            tolerance=0.4,
        )
        if baseline is None:
            print("\ncompare: no recorded baseline for this configuration (vacuously green)")
        elif regressions:
            print(f"\ncompare: REGRESSED vs baseline at commit {baseline.get('commit', '?')[:12]}:")
            for line in regressions:
                print(f"  - {line}")
            return 1
        else:
            print(f"\ncompare: green vs baseline at commit {baseline.get('commit', '?')[:12]}")
    if args.record:
        path = record_benchmark(
            "incremental_engine",
            config=config,
            results=results,
            directory=Path(__file__).resolve().parent / "results",
        )
        print(f"recorded trajectory: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
