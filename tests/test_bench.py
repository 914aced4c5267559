"""Benchmark harness tests: determinism, replay-based verdicts, the record
schema, and the summary statistics."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croprow.bench import (
    CSV_HEADER,
    REFERENCE_LABEL,
    BenchmarkRecord,
    Instance,
    Planner,
    dist_stats,
    emit_report,
    format_table,
    generate_instances,
    read_records_csv,
    run_benchmark,
    scaling_sweep,
    summarize,
    summary_to_json,
    write_records_csv,
)
from croprow.planners import (
    PlannerId,
    PlanResult,
    plan_astar,
    plan_heuristic,
)
from croprow.world import Action, FieldSpec, GoalSpec, RobotState, is_goal, oracle_shortest

HEURISTIC = Planner(PlannerId.HEURISTIC, plan_heuristic)
ASTAR = Planner(PlannerId.GRAPH_ASTAR, plan_astar)


class CountingPlanner:
    """Wraps a planner and counts invocations, to pin down warm-up behaviour."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        return self.inner(request)


def broken_planner(request) -> PlanResult:
    # Claims success but hands back no actions at all.
    return PlanResult(
        raw_actions=(),
        macro_actions=(),
        path_length=0.0,
        planner_id=PlannerId.DQN,
    )


def raising_planner(request) -> PlanResult:
    raise RuntimeError("no plan for you")


class TestInstances:
    def test_deterministic_and_never_terminal(self):
        field = FieldSpec(6, 8)
        a = generate_instances(field, 50, seed=9)
        b = generate_instances(field, 50, seed=9)
        assert a == b
        assert [inst.instance_id for inst in a] == list(range(50))
        for inst in a:
            assert not is_goal(field, inst.start, inst.goal)

    def test_draw_order_is_pinned(self):
        # start then goal per draw, rejected draws included; every seeded
        # suite and training run depends on this order
        got = [(i.start, i.goal) for i in generate_instances(FieldSpec(65, 10), 3, seed=0)]
        assert got == [
            (RobotState(54.5, 6, 1), GoalSpec(17, 3)),
            (RobotState(2.5, 0, 0), GoalSpec(11, 8)),
            (RobotState(41.5, 9, 1), GoalSpec(39, 9)),
        ]

    def test_different_seeds_differ(self):
        field = FieldSpec(6, 8)
        assert generate_instances(field, 30, seed=1) != generate_instances(
            field, 30, seed=2
        )


class TestRunBenchmark:
    def test_success_and_lengths_match_oracle(self):
        field = FieldSpec(5, 6)
        instances = generate_instances(field, 25, seed=3)
        records = run_benchmark([HEURISTIC, ASTAR], instances)
        assert len(records) == 50
        by_key = {(r.instance_id, r.planner_id): r for r in records}
        for inst in instances:
            optimal = oracle_shortest(inst.field, inst.start, inst.goal)
            for planner_id in (PlannerId.HEURISTIC, PlannerId.GRAPH_ASTAR):
                rec = by_key[(inst.instance_id, planner_id)]
                assert rec.success
                assert rec.failure_reason is None
                assert rec.path_length_units == optimal
                assert rec.planning_time_ns >= 1
                assert rec.num_macro_actions >= 1

    def test_record_order_is_instance_then_planner(self):
        instances = generate_instances(FieldSpec(4, 4), 5, seed=0)
        records = run_benchmark([ASTAR, HEURISTIC], instances)
        keys = [(r.instance_id, r.planner_id) for r in records]
        expected = [
            (i, p)
            for i in range(5)
            for p in (PlannerId.GRAPH_ASTAR, PlannerId.HEURISTIC)
        ]
        assert keys == expected

    def test_simulation_overrides_claimed_success(self):
        instances = generate_instances(FieldSpec(4, 5), 10, seed=11)
        records = run_benchmark([Planner(PlannerId.DQN, broken_planner)], instances)
        assert all(not r.success for r in records)
        assert all(r.failure_reason for r in records)

    def test_planner_exception_becomes_failure_record(self):
        instances = generate_instances(FieldSpec(4, 5), 3, seed=2)
        records = run_benchmark([Planner(PlannerId.DQN, raising_planner)], instances)
        assert len(records) == 3
        for r in records:
            assert not r.success
            assert "no plan for you" in r.failure_reason

    def test_warm_up_plus_repetitions_calls(self):
        counting = CountingPlanner(plan_heuristic)
        instances = generate_instances(FieldSpec(4, 4), 4, seed=5)
        run_benchmark([Planner(PlannerId.HEURISTIC, counting)], instances, repetitions=3)
        assert counting.calls == 4 * (1 + 3)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            run_benchmark([HEURISTIC], [], repetitions=0)


class TestStats:
    def test_quartiles_and_outliers(self):
        s = dist_stats([1, 2, 3, 4, 100])
        assert s.q1 == 2.0
        assert s.median == 3.0
        assert s.q3 == 4.0
        assert s.whisker_low == -1.0
        assert s.whisker_high == 7.0
        assert s.outliers == 1
        assert s.mean == 22.0

    def test_even_count_interpolates(self):
        s = dist_stats([1, 2, 3, 4])
        assert s.q1 == 1.75
        assert s.median == 2.5
        assert s.q3 == 3.25

    def test_path_stats_over_successes_only(self):
        records = [
            BenchmarkRecord(0, PlannerId.DQN, True, 10, 4.0, 2),
            BenchmarkRecord(1, PlannerId.DQN, False, 20, 99.0, 0, "lost"),
            BenchmarkRecord(2, PlannerId.DQN, True, 30, 6.0, 2),
        ]
        summary = summarize(records)["dqn"]
        assert summary.count == 3
        assert summary.success_rate == pytest.approx(2 / 3)
        assert summary.path_length.mean == 5.0
        assert summary.time_ns.mean == 20.0

    def test_all_failures_gives_no_path_stats(self):
        records = [BenchmarkRecord(0, PlannerId.DQN, False, 5, 0.0, 0, "x")]
        summary = summarize(records)["dqn"]
        assert summary.path_length is None
        assert summary_to_json(summarize(records))["dqn"]["mean_path_length"] is None


class TestReport:
    def test_csv_header_and_round_trip(self, tmp_path):
        assert CSV_HEADER == (
            "instance_id,planner,success,planning_time_ns,path_length_units,"
            "num_macro_actions,failure_reason"
        )
        instances = generate_instances(FieldSpec(5, 5), 8, seed=21)
        records = run_benchmark([HEURISTIC, ASTAR], instances)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == CSV_HEADER
        assert read_records_csv(path) == records

    def test_round_trip_preserves_failure_reasons(self, tmp_path):
        records = [
            BenchmarkRecord(0, PlannerId.DQN, False, 7, 2.0, 1, "lost, badly"),
            BenchmarkRecord(1, PlannerId.HEURISTIC, True, 9, 3.0, 2),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_summary_json_schema(self):
        instances = generate_instances(FieldSpec(5, 5), 6, seed=8)
        doc = summary_to_json(summarize(run_benchmark([HEURISTIC], instances)))
        assert set(doc) == {"heuristic"}
        assert set(doc["heuristic"]) == {
            "mean_time_ns",
            "median_time_ns",
            "q1",
            "q3",
            "outliers",
            "success_rate",
            "mean_path_length",
        }
        assert doc["heuristic"]["success_rate"] == 1.0

    def test_emit_report_writes_files(self, tmp_path):
        instances = generate_instances(FieldSpec(5, 5), 6, seed=8)
        records = run_benchmark([HEURISTIC, ASTAR], instances)
        out = emit_report(records, tmp_path, prefix="run1")
        with open(tmp_path / "run1.json") as fh:
            assert json.load(fh) == out["summary"]
        assert read_records_csv(tmp_path / "run1.csv") == sorted(
            records, key=lambda r: (r.instance_id, r.planner_id.value)
        )
        assert REFERENCE_LABEL in out["table"]

    def test_table_annotates_reference(self):
        instances = generate_instances(FieldSpec(5, 5), 4, seed=14)
        table = format_table(summarize(run_benchmark([HEURISTIC], instances)))
        assert "0.28 ms" in table
        assert "100.00%" in table
        assert REFERENCE_LABEL in table


class TestScalingSweep:
    def test_deterministic_and_shapes(self):
        results = scaling_sweep(
            HEURISTIC, [4, 8], seed=33, instances_per_size=20, corridor_len=5
        )
        again = scaling_sweep(
            HEURISTIC, [4, 8], seed=33, instances_per_size=20, corridor_len=5
        )
        # Wall-clock means vary run to run; everything else must not.
        assert [(r.num_rows, r.instances, r.success_rate) for r in results] == [
            (r.num_rows, r.instances, r.success_rate) for r in again
        ]
        assert [r.num_rows for r in results] == [4, 8]
        assert all(r.instances == 20 for r in results)
        assert all(r.success_rate == 1.0 for r in results)
        assert all(r.mean_time_ns > 0 for r in results)

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            scaling_sweep(HEURISTIC, [8, 4], seed=1)


@settings(max_examples=30, deadline=None)
@given(
    num_rows=st.integers(2, 7),
    corridor_len=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_benchmark_verdicts_match_oracle(num_rows, corridor_len, seed):
    field = FieldSpec(num_rows, corridor_len)
    instances = generate_instances(field, 3, seed=seed)
    for record in run_benchmark([HEURISTIC, ASTAR], instances):
        inst = instances[record.instance_id]
        assert record.success
        assert record.path_length_units == oracle_shortest(
            inst.field, inst.start, inst.goal
        )
