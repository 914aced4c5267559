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
    "num_macro_actions,failure_reason"
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


@dataclass(frozen=True)
class DistStats:
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: int


@dataclass(frozen=True)
class PlannerSummary:
    count: int
    success_rate: float
    time_ns: DistStats
    path_length: DistStats | None  # over successful runs; None if there were none


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
                result = None
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
            replay = simulate(
                instance.field, instance.start, instance.goal, list(result.raw_actions)
            )
            reason = replay.failure_reason
            if not replay.success and result.failure_reason and reason is None:
                reason = result.failure_reason
            records.append(
                BenchmarkRecord(
                    instance.instance_id,
                    planner.planner_id,
                    replay.success,
                    max(elapsed_ns, 1),
                    replay.total_distance,
                    len(result.macro_actions),
                    reason,
                )
            )
    return records


def dist_stats(values) -> DistStats:
    arr = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])  # linear interpolation
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    outliers = int(np.count_nonzero((arr < lo) | (arr > hi)))
    return DistStats(float(arr.mean()), float(med), float(q1), float(q3), float(lo), float(hi), outliers)


def summarize(records: list[BenchmarkRecord]) -> dict[str, PlannerSummary]:
    """Per-planner stats, keyed by planner name, insertion-ordered by first
    appearance; path-length stats cover successful runs only."""
    grouped: dict[str, list[BenchmarkRecord]] = {}
    for record in sorted(records, key=lambda r: (r.instance_id, r.planner_id.value)):
        grouped.setdefault(record.planner_id.value, []).append(record)
    out: dict[str, PlannerSummary] = {}
    for name, group in grouped.items():
        times = [r.planning_time_ns for r in group]
        lengths = [r.path_length_units for r in group if r.success]
        out[name] = PlannerSummary(
            count=len(group),
            success_rate=sum(r.success for r in group) / len(group),
            time_ns=dist_stats(times),
            path_length=dist_stats(lengths) if lengths else None,
        )
    return out


def summary_to_json(summaries: dict[str, PlannerSummary]) -> dict:
    """The documented JSON schema: planner name to its headline numbers."""
    out = {}
    for name, s in summaries.items():
        out[name] = {
            "mean_time_ns": s.time_ns.mean,
            "median_time_ns": s.time_ns.median,
            "q1": s.time_ns.q1,
            "q3": s.time_ns.q3,
            "outliers": s.time_ns.outliers,
            "success_rate": s.success_rate,
            "mean_path_length": s.path_length.mean if s.path_length else None,
        }
    return out


def format_table(summaries: dict[str, PlannerSummary]) -> str:
    """Comparison table with the published baseline annotated per planner."""
    lines = [
        f"{'planner':<10} {'mean ms':>9} {'median ms':>10} {'success':>8} "
        f"{'mean path':>10}   {REFERENCE_LABEL}"
    ]
    for name, s in summaries.items():
        ref = REFERENCE_BASELINE.get(name)
        note = (
            f"{ref['mean_time_ms']:.2f} ms, {ref['success_rate'] * 100:.2f}%"
            if ref
            else "-"
        )
        mean_path = f"{s.path_length.mean:.1f}" if s.path_length else "-"
        lines.append(
            f"{name:<10} {s.time_ns.mean / 1e6:>9.3f} {s.time_ns.median / 1e6:>10.3f} "
            f"{s.success_rate * 100:>7.2f}% {mean_path:>10}   {note}"
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
                ]
            )


def read_records_csv(path) -> list[BenchmarkRecord]:
    out: list[BenchmarkRecord] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            out.append(
                BenchmarkRecord(
                    int(row["instance_id"]),
                    PlannerId(row["planner"]),
                    row["success"] == "true",
                    int(row["planning_time_ns"]),
                    float(row["path_length_units"]),
                    int(row["num_macro_actions"]),
                    row["failure_reason"] or None,
                )
            )
    return out


def emit_report(
    records: list[BenchmarkRecord], out_dir, prefix: str = "benchmark"
) -> dict:
    """Write <prefix>.csv and <prefix>.json under out_dir; returns the JSON
    document (with the table under a side key for callers that print it)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: (r.instance_id, r.planner_id.value))
    write_records_csv(ordered, out_dir / f"{prefix}.csv")
    summaries = summarize(ordered)
    doc = summary_to_json(summaries)
    with open(out_dir / f"{prefix}.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return {"summary": doc, "table": format_table(summaries)}


def scaling_sweep(
    planner: Planner,
    sizes: list[int],
    seed: int,
    instances_per_size: int = 1000,
    corridor_len: int = 10,
    repetitions: int = 1,
) -> list[SizeResult]:
    """Mean planning time as the field widens; same seed, same instances."""
    if sorted(sizes) != list(sizes):
        raise ValueError("sizes must be ascending")
    master = np.random.default_rng(seed)
    out: list[SizeResult] = []
    for num_rows in sizes:
        size_seed = int(master.integers(2**63))
        field = FieldSpec(num_rows, corridor_len)
        instances = generate_instances(field, instances_per_size, size_seed)
        records = run_benchmark([planner], instances, repetitions=repetitions)
        times = [r.planning_time_ns for r in records]
        out.append(
            SizeResult(
                num_rows=num_rows,
                instances=len(records),
                mean_time_ns=float(np.mean(times)),
                success_rate=sum(r.success for r in records) / len(records),
            )
        )
    return out
