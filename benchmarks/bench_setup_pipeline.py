"""Benchmark: columnar/factorized session setup vs the seed's row-at-a-time setup.

The seed built a session's machinery row by row: ``CandidateTable.cross_product``
materialised every |R₁|·…·|Rₖ| combination as a Python tuple and
``EqualityTypeIndex`` called ``AtomUniverse.equality_mask`` once per row — an
O(rows × atoms) pure-Python double loop that dominated wall-clock and memory
before the engine asked its first question.  This benchmark keeps a faithful
copy of that construction inline (``seed_cross_product`` and
``SeedEqualityTypeIndex`` below) and measures it against the current pipeline
(factorized cross products, group-combination type histograms, lazy rows) on
the setup-scale synthetic workloads.

It also checks *observational equivalence*: the two pipelines must produce
identical per-tuple masks and distinct-type histograms on every scenario, and
identical interaction traces when an engine runs over a seed-built table vs a
factorized one.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_setup_pipeline.py           # full: asserts >=10x
    PYTHONPATH=src python benchmarks/bench_setup_pipeline.py --quick   # CI smoke

With ``--record``, runs append their measurements to ``benchmarks/results/BENCH_setup_pipeline.json``
(keyed by git commit + config hash; see :mod:`repro.experiments.trajectory`);
``--compare`` diffs the fresh speedup and memory-reduction ratios against the
latest recorded same-config baseline.  Exit status is non-zero when
equivalence fails, ``--compare`` finds a regression, or (in full mode) when
the construction speedup on the largest workload falls below the 10x target
or no memory reduction is measured.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

from repro import GoalQueryOracle, JoinInferenceEngine
from repro.core.atoms import AtomScope, AtomUniverse
from repro.core.equality_types import EqualityTypeIndex
from repro.core.strategies.registry import create_strategy
from repro.datasets.flights_hotels import figure1_table
from repro.datasets.synthetic import SyntheticConfig, generate_instance
from repro.datasets.workloads import figure1_workload
from repro.experiments.scalability import scalability_workloads, setup_scale_workloads
from repro.experiments.trajectory import compare_to_trajectory, record_benchmark
from repro.relational.candidate import CandidateAttribute, CandidateTable
from repro.relational.instance import DatabaseInstance


# --------------------------------------------------------------------------- #
# The seed implementation, kept verbatim as the baseline under measurement
# --------------------------------------------------------------------------- #
def seed_cross_product(
    instance: DatabaseInstance,
    relation_names: Sequence[str] | None = None,
    name: str | None = None,
) -> CandidateTable:
    """The seed's ``CandidateTable.cross_product``: eager row materialisation."""
    names = list(relation_names) if relation_names is not None else list(instance.relation_names)
    relations = [instance.relation(rel_name) for rel_name in names]
    attributes = [
        CandidateAttribute(attr.qualified_name, attr.data_type, relation.name)
        for relation in relations
        for attr in relation.schema.attributes
    ]
    rows = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*(relation.rows for relation in relations))
    ]
    return CandidateTable(attributes, rows, name=name or "x".join(names))


class SeedEqualityTypeIndex:
    """The seed's ``EqualityTypeIndex``: one ``equality_mask`` call per row."""

    def __init__(self, universe: AtomUniverse) -> None:
        self.universe = universe
        self.table = universe.table
        self.masks: tuple[int, ...] = tuple(
            universe.equality_mask(row) for row in self.table.rows
        )
        grouped: dict[int, list[int]] = {}
        for tuple_id, mask in enumerate(self.masks):
            grouped.setdefault(mask, []).append(tuple_id)
        self.by_mask: dict[int, tuple[int, ...]] = {
            mask: tuple(ids) for mask, ids in grouped.items()
        }

    def type_sizes(self) -> dict[int, int]:
        return {mask: len(ids) for mask, ids in self.by_mask.items()}

    def selected_by(self, query_mask: int) -> frozenset[int]:
        selected: list[int] = []
        for mask, ids in self.by_mask.items():
            if query_mask & ~mask == 0:
                selected.extend(ids)
        return frozenset(selected)


def _seed_setup(instance: DatabaseInstance):
    table = seed_cross_product(instance)
    universe = AtomUniverse.from_table(table, scope=AtomScope.CROSS_RELATION)
    return table, universe, SeedEqualityTypeIndex(universe)


def _current_setup(instance: DatabaseInstance):
    table = CandidateTable.cross_product(instance)
    universe = AtomUniverse.from_table(table, scope=AtomScope.CROSS_RELATION)
    return table, universe, EqualityTypeIndex(universe)


# --------------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------------- #
def _index_signature(index, universe) -> tuple:
    sizes = dict(index.type_sizes())
    probes = [0, universe.full_mask] + [1 << pos for pos in range(universe.size)]
    return (
        tuple(index.masks),
        sorted(sizes.items()),
        [sorted(index.selected_by(mask)) for mask in probes],
    )


def _flat_index_signature(table: CandidateTable, universe: AtomUniverse) -> tuple:
    """Row-at-a-time masks over an arbitrary (flat or factorized) table."""
    masks = tuple(universe.equality_mask(row) for row in table)
    grouped: dict[int, int] = {}
    for mask in masks:
        grouped[mask] = grouped.get(mask, 0) + 1
    probes = [0, universe.full_mask] + [1 << pos for pos in range(universe.size)]
    return (
        masks,
        sorted(grouped.items()),
        [
            sorted(tid for tid, mask in enumerate(masks) if probe & ~mask == 0)
            for probe in probes
        ],
    )


def check_construction_equivalence(quick: bool) -> list[str]:
    """Masks, histograms and selections must match the seed on every scenario."""
    mismatches: list[str] = []
    sizes = (6, 12) if quick else (10, 20, 30)

    for tuples in sizes:
        config = SyntheticConfig(
            num_relations=2, attributes_per_relation=3, tuples_per_relation=tuples, domain_size=4
        )
        instance = generate_instance(config)
        _, seed_universe, seed_index = _seed_setup(instance)
        _, universe, index = _current_setup(instance)
        if seed_universe.atoms != universe.atoms:
            mismatches.append(f"synthetic/{tuples}: atom universes differ")
            continue
        if _index_signature(index, universe) != _index_signature(seed_index, seed_universe):
            mismatches.append(f"synthetic/{tuples}: factorized index diverges")

    # Three-relation product, including a relation no atom can reach.
    config = SyntheticConfig(
        num_relations=3, attributes_per_relation=2, tuples_per_relation=5, domain_size=3
    )
    instance = generate_instance(config)
    _, seed_universe, seed_index = _seed_setup(instance)
    _, universe, index = _current_setup(instance)
    if _index_signature(index, universe) != _index_signature(seed_index, seed_universe):
        mismatches.append("synthetic/3-relations: factorized index diverges")

    # Flat table with None values (the paper's Figure 1 has null discounts).
    flat = figure1_table()
    flat_universe = AtomUniverse.from_table(flat, scope=AtomScope.ALL_PAIRS)
    flat_index = EqualityTypeIndex(flat_universe)
    if _index_signature(flat_index, flat_universe) != _flat_index_signature(flat, flat_universe):
        mismatches.append("figure1/flat: columnar index diverges")

    # Sampled cross product (flat, columnar path).
    config = SyntheticConfig(
        num_relations=2, attributes_per_relation=3, tuples_per_relation=12, domain_size=4
    )
    instance = generate_instance(config)
    sampled = CandidateTable.cross_product(instance, max_rows=50, rng=random.Random(3))
    sampled_universe = AtomUniverse.from_table(sampled, scope=AtomScope.CROSS_RELATION)
    sampled_index = EqualityTypeIndex(sampled_universe)
    if _index_signature(sampled_index, sampled_universe) != _flat_index_signature(
        sampled, sampled_universe
    ):
        mismatches.append("synthetic/sampled: columnar index diverges")

    # Single-relation product (one factor, all-pairs atoms).
    single = CandidateTable.cross_product(instance, relation_names=["R1"])
    single_universe = AtomUniverse.from_table(single, scope=AtomScope.ALL_PAIRS)
    single_index = EqualityTypeIndex(single_universe)
    if _index_signature(single_index, single_universe) != _flat_index_signature(
        single, single_universe
    ):
        mismatches.append("synthetic/single-relation: factorized index diverges")

    return mismatches


def _trace_signature(result):
    return (
        [
            (i.tuple_id, i.label.value, i.pruned, i.informative_remaining)
            for i in result.trace.interactions
        ],
        result.query.normalized().describe(),
        result.converged,
    )


def check_trace_equivalence(quick: bool) -> list[str]:
    """Full runs over seed-built and factorized tables must ask identically."""
    sizes = (6, 10) if quick else (10, 20, 30)
    strategies = ("random", "local-most-specific", "local-largest-type", "lookahead-entropy")
    scenarios = [("figure1/q2", figure1_workload("q2"), None)]
    for workload in scalability_workloads(tuples_per_relation=sizes, goal_atoms=2, seed=0):
        config = SyntheticConfig(
            num_relations=2,
            attributes_per_relation=3,
            tuples_per_relation=int(round(workload.num_candidates**0.5)),
            domain_size=4,
            seed=0,
        )
        seed_table = seed_cross_product(generate_instance(config), name=workload.table.name)
        scenarios.append((f"scalability/{workload.num_candidates}", workload, seed_table))
    mismatches = []
    for scenario_name, workload, seed_table in scenarios:
        for name in strategies:
            current = JoinInferenceEngine(workload.table, strategy=create_strategy(name, seed=7))
            current_result = current.run(GoalQueryOracle(workload.goal))
            baseline_table = seed_table if seed_table is not None else workload.table
            baseline = JoinInferenceEngine(baseline_table, strategy=create_strategy(name, seed=7))
            baseline_result = baseline.run(GoalQueryOracle(workload.goal))
            if _trace_signature(current_result) != _trace_signature(baseline_result):
                mismatches.append(f"{scenario_name} × {name}")
    return mismatches


def check_workload_generation(quick: bool) -> list[str]:
    """Goal drawing over setup-scale instances must never materialise rows."""
    sizes = (30, 60) if quick else (100, 200, 400)
    problems = []
    started = time.perf_counter()
    for workload in setup_scale_workloads(tuples_per_relation=sizes):
        if workload.table.is_materialized():
            problems.append(
                f"setup-scale/{workload.num_candidates}: goal drawing materialised the rows"
            )
        if not 0 < workload.goal.count_selected(workload.table) < workload.num_candidates:
            problems.append(f"setup-scale/{workload.num_candidates}: goal is trivial")
    if not problems:
        print(
            f"ok: {len(sizes)} setup-scale workload(s) generated factorized "
            f"(largest {sizes[-1] * sizes[-1]} candidates) in {time.perf_counter() - started:.3f}s"
        )
    return problems


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def _timed(build, instance, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        build(instance)
        walls.append(time.perf_counter() - started)
    return min(walls)


def _peak_memory(build, instance) -> tuple[int, tuple]:
    tracemalloc.start()
    built = build(instance)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, built


def measure(quick: bool, repeats: int) -> list[dict]:
    """Construction wall-clock and peak memory, seed vs columnar, per size."""
    sizes = (30, 60) if quick else (100, 200, 400)
    results = []
    for tuples in sizes:
        config = SyntheticConfig(
            num_relations=2, attributes_per_relation=3, tuples_per_relation=tuples, domain_size=4
        )
        instance = generate_instance(config)
        seed_wall = _timed(_seed_setup, instance, repeats)
        current_wall = _timed(_current_setup, instance, repeats)
        # Histograms must be byte-identical at every measured size; the
        # memory-measurement builds double as the compared indexes.
        seed_peak, (_, _, seed_index) = _peak_memory(_seed_setup, instance)
        current_peak, (_, _, index) = _peak_memory(_current_setup, instance)
        results.append(
            {
                "candidates": tuples * tuples,
                "seed_wall": seed_wall,
                "current_wall": current_wall,
                "speedup": seed_wall / current_wall if current_wall else float("inf"),
                "seed_peak_kb": seed_peak / 1024.0,
                "current_peak_kb": current_peak / 1024.0,
                "memory_reduction": seed_peak / current_peak if current_peak else float("inf"),
                "histograms_identical": dict(index.type_sizes()) == seed_index.type_sizes(),
            }
        )
    return results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: small sizes, no 10x assertion"
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best-of)")
    parser.add_argument(
        "--record",
        action="store_true",
        help="append this run to benchmarks/results/BENCH_setup_pipeline.json",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="fail on regressions vs the latest recorded same-config baseline",
    )
    args = parser.parse_args(argv)

    print("== construction equivalence: columnar/factorized vs seed row-at-a-time ==")
    mismatches = check_construction_equivalence(args.quick)
    if mismatches:
        print(f"FAIL: {len(mismatches)} diverging scenario(s):")
        for item in mismatches:
            print(f"  - {item}")
        return 1
    print("ok: identical masks, type histograms and selections on all scenarios")

    print("\n== interaction-trace equivalence: engine over seed vs factorized tables ==")
    mismatches = check_trace_equivalence(args.quick)
    if mismatches:
        print(f"FAIL: {len(mismatches)} diverging scenario(s):")
        for item in mismatches:
            print(f"  - {item}")
        return 1
    print("ok: identical interaction traces on all scenarios")

    print("\n== workload generation over setup-scale instances ==")
    problems = check_workload_generation(args.quick)
    if problems:
        print(f"FAIL: {len(problems)} problem(s):")
        for item in problems:
            print(f"  - {item}")
        return 1

    print("\n== setup cost (cross product + atom universe + equality-type index) ==")
    rows = measure(args.quick, max(1, args.repeats))
    header = (
        f"{'candidates':>10}  {'seed':>9}  {'columnar':>9}  {'speedup':>8}  "
        f"{'seed KiB':>10}  {'columnar KiB':>12}  {'mem x':>6}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['candidates']:>10}  {row['seed_wall']:>8.4f}s  {row['current_wall']:>8.4f}s  "
            f"{row['speedup']:>7.1f}x  {row['seed_peak_kb']:>10.0f}  "
            f"{row['current_peak_kb']:>12.0f}  {row['memory_reduction']:>5.0f}x"
        )

    if not all(row["histograms_identical"] for row in rows):
        print("FAIL: equality-type histograms differ between the pipelines")
        return 1
    largest = rows[-1]
    if not args.quick:
        if largest["speedup"] < 10.0:
            print("FAIL: construction speedup below the 10x acceptance target")
            return 1
        if largest["memory_reduction"] < 2.0:
            print("FAIL: no measured memory reduction on the largest workload")
            return 1

    config = {"quick": args.quick, "repeats": max(1, args.repeats)}
    results = {
        "sizes": rows,
        # Top-level ratios of the largest workload, for trajectory comparison.
        "largest_speedup": largest["speedup"],
        "largest_memory_reduction": largest["memory_reduction"],
    }
    if args.compare:
        regressions, baseline = compare_to_trajectory(
            "setup_pipeline",
            Path(__file__).resolve().parent / "results",
            config,
            results,
            ["largest_speedup", "largest_memory_reduction"],
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
            "setup_pipeline",
            config=config,
            results=results,
            directory=Path(__file__).resolve().parent / "results",
        )
        print(f"recorded trajectory: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
