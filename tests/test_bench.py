"""Benchmark harness tests: determinism, replay-based verdicts, the record
schema, and the summary statistics."""

from __future__ import annotations

import csv
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
    emit_report,
    format_table,
    generate_instances,
    run_benchmark,
    scaling_sweep,
    summarize,
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


def csv_records(path) -> list[BenchmarkRecord]:
    """The records in a file written by write_records_csv, parsed here with
    the csv module alone."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_HEADER.split(",")
        return [
            BenchmarkRecord(
                int(row["instance_id"]),
                PlannerId(row["planner"]),
                {"true": True, "false": False}[row["success"]],
                int(row["planning_time_ns"]),
                float(row["path_length_units"]),
                int(row["num_macro_actions"]),
                row["failure_reason"] or None,
                int(row["nodes_expanded"]),
            )
            for row in reader
        ]


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
                # A* counts its pops, the goal pop included; the heuristic pops none
                assert (rec.nodes_expanded >= 1) == (planner_id is PlannerId.GRAPH_ASTAR)

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


def timing_records(times_ns) -> list[BenchmarkRecord]:
    return [
        BenchmarkRecord(i, PlannerId.HEURISTIC, True, t, 1.0, 1)
        for i, t in enumerate(times_ns)
    ]


class TestStats:
    def test_quartiles_and_outliers(self):
        s = summarize(timing_records([1, 2, 3, 4, 100]))["heuristic"]
        assert s["q1"] == 2.0
        assert s["median_time_ns"] == 3.0
        assert s["q3"] == 4.0
        # whiskers at -1 and 7: only 100 lies beyond them
        assert s["outliers"] == 1
        assert s["mean_time_ns"] == 22.0

    def test_even_count_interpolates(self):
        s = summarize(timing_records([1, 2, 3, 4]))["heuristic"]
        assert s["q1"] == 1.75
        assert s["median_time_ns"] == 2.5
        assert s["q3"] == 3.25

    def test_path_stats_over_successes_only(self):
        records = [
            BenchmarkRecord(0, PlannerId.DQN, True, 10, 4.0, 2),
            BenchmarkRecord(1, PlannerId.DQN, False, 20, 99.0, 0, "lost"),
            BenchmarkRecord(2, PlannerId.DQN, True, 30, 6.0, 2),
        ]
        summary = summarize(records)["dqn"]
        assert summary["success_rate"] == pytest.approx(2 / 3)
        assert summary["mean_path_length"] == 5.0
        assert summary["mean_time_ns"] == 20.0

    def test_all_failures_gives_no_path_stats(self):
        records = [BenchmarkRecord(0, PlannerId.DQN, False, 5, 0.0, 0, "x")]
        assert summarize(records)["dqn"]["mean_path_length"] is None

    def test_summary_and_table_are_pinned(self):
        R, P = BenchmarkRecord, PlannerId
        lost = "step budget exhausted"
        records = [
            R(3, P.GRAPH_ASTAR, True, 1_480_000, 14.0, 3, nodes_expanded=12),
            R(0, P.HEURISTIC, True, 250_000, 12.0, 3),
            R(0, P.GRAPH_ASTAR, True, 1_300_000, 12.0, 3, nodes_expanded=10),
            R(1, P.HEURISTIC, True, 310_000, 9.0, 2),
            R(1, P.DQN, False, 2_900_000, 40.0, 7, lost),
            R(2, P.HEURISTIC, True, 275_000, 17.0, 3),
            R(2, P.GRAPH_ASTAR, True, 9_700_000, 15.0, 3, nodes_expanded=40),
            R(1, P.GRAPH_ASTAR, True, 1_210_000, 9.0, 2, nodes_expanded=6),
            R(0, P.DQN, False, 2_600_000, 13.0, 4, lost),
            R(3, P.HEURISTIC, True, 260_000, 14.0, 3),
            R(2, P.DQN, False, 2_750_000, 16.0, 4, lost),
        ]
        summary = summarize(records)
        # pinned: keys, planner order and values of benchmark.json, and the table
        assert list(summary.items()) == [
            ("astar", {
                "mean_time_ns": 3422500.0, "median_time_ns": 1390000.0,
                "q1": 1277500.0, "q3": 3535000.0, "outliers": 1,
                "success_rate": 1.0, "mean_path_length": 12.5,
                "mean_nodes_expanded": 17.0,
            }),
            ("dqn", {
                "mean_time_ns": 2750000.0, "median_time_ns": 2750000.0,
                "q1": 2675000.0, "q3": 2825000.0, "outliers": 0,
                "success_rate": 0.0, "mean_path_length": None,
                "mean_nodes_expanded": 0.0,
            }),
            ("heuristic", {
                "mean_time_ns": 273750.0, "median_time_ns": 267500.0,
                "q1": 257500.0, "q3": 283750.0, "outliers": 0,
                "success_rate": 1.0, "mean_path_length": 13.0,
                "mean_nodes_expanded": 0.0,
            }),
        ]
        assert format_table(summary) == (
            "planner      mean ms  median ms  success  mean path   "
            "published baseline (original study hardware)\n"
            "astar          3.422      1.390  100.00%       12.5   1.40 ms, 99.13%\n"
            "dqn            2.750      2.750    0.00%          -   2.78 ms, 96.33%\n"
            "heuristic      0.274      0.268  100.00%       13.0   0.28 ms, 100.00%"
        )


class TestReport:
    def test_csv_header_and_round_trip(self, tmp_path):
        assert CSV_HEADER == (
            "instance_id,planner,success,planning_time_ns,path_length_units,"
            "num_macro_actions,failure_reason,nodes_expanded"
        )
        instances = generate_instances(FieldSpec(5, 5), 8, seed=21)
        records = run_benchmark([HEURISTIC, ASTAR], instances)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == CSV_HEADER
        assert csv_records(path) == records

    def test_round_trip_preserves_failure_reasons(self, tmp_path):
        records = [
            BenchmarkRecord(0, PlannerId.DQN, False, 7, 2.0, 1, "lost, badly"),
            BenchmarkRecord(1, PlannerId.HEURISTIC, True, 9, 3.0, 2),
            BenchmarkRecord(2, PlannerId.GRAPH_ASTAR, True, 11, 3.0, 2, None, 17),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert csv_records(path) == records

    def test_summary_json_schema(self):
        instances = generate_instances(FieldSpec(5, 5), 6, seed=8)
        doc = summarize(run_benchmark([HEURISTIC], instances))
        assert set(doc) == {"heuristic"}
        assert set(doc["heuristic"]) == {
            "mean_time_ns",
            "median_time_ns",
            "q1",
            "q3",
            "outliers",
            "success_rate",
            "mean_path_length",
            "mean_nodes_expanded",
        }
        assert doc["heuristic"]["success_rate"] == 1.0

    def test_emit_report_writes_files(self, tmp_path):
        instances = generate_instances(FieldSpec(5, 5), 6, seed=8)
        records = run_benchmark([HEURISTIC, ASTAR], instances)
        out = emit_report(records, tmp_path)
        with open(tmp_path / "benchmark.json") as fh:
            assert json.load(fh) == out["summary"]
        assert csv_records(tmp_path / "benchmark.csv") == sorted(
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

    def test_requests_are_each_size_s_suite_timed_round_robin(self):
        sizes, n, seed = [4, 6, 9], 5, 21
        seen = []
        recording = Planner(PlannerId.HEURISTIC, lambda request: seen.append(request) or plan_heuristic(request))
        results = scaling_sweep(recording, sizes, seed=seed, instances_per_size=n, corridor_len=3, repetitions=2)
        master = np.random.default_rng(seed)
        suites = [generate_instances(FieldSpec(w, 3), n, int(master.integers(2**63))) for w in sizes]
        # instance i of every size before instance i + 1 of any: a warm-up call, then two timed ones
        assert seen == [suite[i].request() for i in range(n) for suite in suites for _ in range(3)]
        assert [(r.num_rows, r.instances, r.success_rate) for r in results] == [(w, n, 1.0) for w in sizes]

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            scaling_sweep(HEURISTIC, [8, 4], seed=1)

    def test_rejects_repeated_sizes(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            scaling_sweep(HEURISTIC, [4, 8, 8], seed=1, instances_per_size=1)


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
