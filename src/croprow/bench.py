"""Benchmark harness: seeded instance suites, wall-clock planning times, and
success verdicts decided by replaying every plan through the simulator.

Timing uses the monotonic high-resolution clock around the single planning
call, takes the median over a configurable number of repetitions, and never
counts the warm-up call.  Report output is a CSV of per-run records, a JSON
summary, and a human-readable table annotated with the published baseline
numbers measured on the original study's hardware.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from croprow.planners import PlanRequest, PlanResult, PlannerId
from croprow.world import FieldSpec, GoalSpec, RobotState, sample_instance, simulate

CSV_HEADER = (
    "instance_id,planner,success,planning_time_ns,path_length_units,"
    "num_macro_actions,failure_reason,nodes_expanded"
)

REFERENCE_LABEL = "published baseline (original study hardware)"
REFERENCE_BASELINE = {
    "heuristic": {"mean_time_ms": 0.28, "success_rate": 1.0},
    "astar": {"mean_time_ms": 1.40, "success_rate": 0.9913},
    "dqn": {"mean_time_ms": 2.78, "success_rate": 0.9633},
}


@dataclass(frozen=True)
class Instance:
    instance_id: int
    field: FieldSpec
    start: RobotState
    goal: GoalSpec

    def request(self) -> PlanRequest:
        return PlanRequest(self.field, self.start, self.goal)


@dataclass(frozen=True)
class Planner:
    """A benchmarkable planner: an id plus a pure planning callable."""

    planner_id: PlannerId
    plan: Callable[[PlanRequest], PlanResult]


@dataclass(frozen=True)
class BenchmarkRecord:
    instance_id: int
    planner_id: PlannerId
    success: bool
    planning_time_ns: int
    path_length_units: float
    num_macro_actions: int
    failure_reason: str | None = None
    nodes_expanded: int = 0


@dataclass(frozen=True)
class SizeResult:
    num_rows: int
    instances: int
    mean_time_ns: float
    success_rate: float


def generate_instances(field: FieldSpec, count: int, seed: int) -> list[Instance]:
    """Deterministic instance suite; starts already in a terminal
    configuration are rejected and redrawn."""
    rng = np.random.default_rng(seed)
    return [Instance(i, field, *sample_instance(field, rng)) for i in range(count)]


def timed_call(planner: Planner, request: PlanRequest) -> tuple[PlanResult, int]:
    """One planning call and its wall time in ns, at least 1."""
    t0 = time.perf_counter_ns()
    result = planner.plan(request)
    return result, max(time.perf_counter_ns() - t0, 1)


def run_benchmark(
    planners: list[Planner],
    instances: list[Instance],
    repetitions: int = 1,
) -> list[BenchmarkRecord]:
    """Each planner on each instance; records ordered by (instance, planner).

    Success is decided solely by replaying the returned unit actions through
    the simulator.  A planner exception becomes a failure record.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    records: list[BenchmarkRecord] = []
    for instance in instances:
        request = instance.request()
        for planner in planners:
            try:
                planner.plan(request)  # warm-up, never timed
                times = []
                for _ in range(repetitions):
                    result, elapsed = timed_call(planner, request)
                    times.append(elapsed)
                elapsed_ns = int(round(statistics.median(times)))
            except Exception as exc:  # noqa: BLE001 - harness must survive planners
                records.append(
                    BenchmarkRecord(
                        instance.instance_id,
                        planner.planner_id,
                        False,
                        1,
                        0.0,
                        0,
                        f"planner error: {exc}",
                    )
                )
                continue
            replay = simulate(instance.field, instance.start, instance.goal, result.raw_actions)
            records.append(
                BenchmarkRecord(
                    instance.instance_id,
                    planner.planner_id,
                    replay.success,
                    elapsed_ns,
                    replay.total_distance,
                    len(result.macro_actions),
                    replay.failure_reason,
                    result.nodes_expanded,
                )
            )
    return records


def summarize(records: list[BenchmarkRecord]) -> dict[str, dict]:
    """The benchmark.json document: per planner, keyed and ordered by name,
    planning-time mean, median and quartiles (linear interpolation), the
    count of times beyond 1.5 IQR of the quartiles, the success rate, the
    mean path length over successful runs (None if there were none), and the
    mean count of nodes the planner expanded."""
    grouped: dict[str, list[BenchmarkRecord]] = {}
    for record in sorted(records, key=lambda r: (r.instance_id, r.planner_id.value)):
        grouped.setdefault(record.planner_id.value, []).append(record)
    out: dict[str, dict] = {}
    for name, group in grouped.items():
        times = np.asarray([r.planning_time_ns for r in group], dtype=np.float64)
        q1, median, q3 = np.percentile(times, [25.0, 50.0, 75.0])
        reach = 1.5 * (q3 - q1)
        lengths = [r.path_length_units for r in group if r.success]
        out[name] = {
            "mean_time_ns": float(times.mean()),
            "median_time_ns": float(median),
            "q1": float(q1),
            "q3": float(q3),
            "outliers": int(np.count_nonzero((times < q1 - reach) | (times > q3 + reach))),
            "success_rate": sum(r.success for r in group) / len(group),
            "mean_path_length": (
                float(np.asarray(lengths, dtype=np.float64).mean()) if lengths else None
            ),
            "mean_nodes_expanded": sum(r.nodes_expanded for r in group) / len(group),
        }
    return out


def format_table(summary: dict[str, dict]) -> str:
    """Comparison table with the published baseline annotated per planner."""
    lines = [
        f"{'planner':<10} {'mean ms':>9} {'median ms':>10} {'success':>8} "
        f"{'mean path':>10}   {REFERENCE_LABEL}"
    ]
    for name, s in summary.items():
        ref = REFERENCE_BASELINE.get(name)
        note = (
            f"{ref['mean_time_ms']:.2f} ms, {ref['success_rate'] * 100:.2f}%"
            if ref
            else "-"
        )
        mean_path = "-" if s["mean_path_length"] is None else f"{s['mean_path_length']:.1f}"
        lines.append(
            f"{name:<10} {s['mean_time_ns'] / 1e6:>9.3f} {s['median_time_ns'] / 1e6:>10.3f} "
            f"{s['success_rate'] * 100:>7.2f}% {mean_path:>10}   {note}"
        )
    return "\n".join(lines)


def write_records_csv(records: list[BenchmarkRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow(
                [
                    r.instance_id,
                    r.planner_id.value,
                    str(r.success).lower(),
                    r.planning_time_ns,
                    r.path_length_units,
                    r.num_macro_actions,
                    r.failure_reason or "",
                    r.nodes_expanded,
                ]
            )


def emit_report(records: list[BenchmarkRecord], out_dir) -> dict:
    """Write benchmark.csv and benchmark.json under out_dir; returns the JSON
    document (with the table under a side key for callers that print it)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: (r.instance_id, r.planner_id.value))
    write_records_csv(ordered, out_dir / "benchmark.csv")
    doc = summarize(ordered)
    with open(out_dir / "benchmark.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return {"summary": doc, "table": format_table(doc)}


def scaling_sweep(
    planner: Planner,
    sizes: list[int],
    seed: int,
    instances_per_size: int = 1000,
    corridor_len: int = 10,
    repetitions: int = 1,
) -> list[SizeResult]:
    """Mean planning time as the field widens, on each size's
    ``generate_instances`` suite.  The sizes are timed round-robin, instance
    i of every size before instance i + 1 of any, so a burst of load lands
    on all of them alike; each size keeps running totals only."""
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    master = np.random.default_rng(seed)
    fields = [FieldSpec(num_rows, corridor_len) for num_rows in sizes]
    rngs = [np.random.default_rng(int(master.integers(2**63))) for _ in sizes]  # generate_instances' draws
    totals = [[0, 0] for _ in sizes]  # ns, successes
    for i in range(instances_per_size):
        for field, rng, total in zip(fields, rngs, totals):
            (record,) = run_benchmark([planner], [Instance(i, field, *sample_instance(field, rng))], repetitions)
            total[0] += record.planning_time_ns
            total[1] += record.success
    n = instances_per_size
    return [SizeResult(f.num_rows, n, ns / n, successes / n) for f, (ns, successes) in zip(fields, totals)]
