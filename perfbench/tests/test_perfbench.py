"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
from host import HostSpeed  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Span, Tracer, self_by_layer, self_times  # noqa: E402
from stats import percentile, tail  # noqa: E402
from workloads import Planning, Timed, latency_metrics, stratified  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


# --- tail percentile rule -------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, 100.0), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (2000, 99.5), (10_000, 99.9), (200_000, 99.99)],
)
def test_tail_is_highest_rung_with_ten_samples_beyond(n, expected):
    assert tail(list(range(n))).percentile == expected


def test_tail_leaves_at_least_ten_larger_samples():
    for n in range(20, 2500, 7):
        values = [float(v) for v in range(n)]
        t = tail(values)
        assert sum(v > t.value for v in values) >= 10
        assert t.samples == n


def test_tail_value_is_nearest_rank():
    values = list(range(1, 1001))
    assert tail(values).value == 990
    assert percentile(values, 50) == 500
    assert percentile([3.0], 99) == 3.0


def test_tail_with_too_few_samples_reports_the_maximum():
    t = tail([5.0, 1.0, 9.0])
    assert (t.percentile, t.value, t.samples) == (100.0, 9.0, 3)


# --- spans and self time ----------------------------------------------------


def test_self_times_of_synthetic_tree():
    spans = [
        Span("harness.op", 0, 100, -1, 0),
        Span("bench.run_benchmark", 10, 40, 0, 0),
        Span("world.simulate", 15, 25, 1, 0),
        Span("world.oracle_shortest", 50, 90, 0, 0),
        Span("harness.op", 200, 230, -1, 1),
    ]
    selfs = self_times(spans)
    assert selfs == [30, 20, 10, 40, 30]
    assert sum(selfs) == 100 + 30  # self times account for the roots exactly
    assert self_by_layer(spans, selfs) == {"harness": 60, "bench": 20, "world": 50}


def test_tracer_records_nesting_and_restores_patches():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    class Owner:
        def method(self, x):
            return x + 1

    module = type(sys)("fake_layer")
    module.helper = lambda x: Owner().method(x) * 2
    tracer.target(module, "helper", "fake.helper")
    tracer.target(Owner, "method", "fake.Owner.method")
    original = module.helper
    with tracer.installed():
        assert tracer.wrap("harness.op", module.helper)(1) == 4
    assert module.helper is original and Owner.__dict__["method"].__name__ == "method"
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("harness.op", -1), ("fake.helper", 0), ("fake.Owner.method", 1)
    ]
    selfs = self_times(tracer.spans)
    assert sum(selfs) == tracer.spans[0].duration

    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            module.helper = lambda x: 1 / 0
            raise ZeroDivisionError
    assert module.helper is original


# --- failure accounting -----------------------------------------------------


def _planning(planner_fns):
    mods = run.import_program()
    world = mods.world
    workload = Planning("stub", 5, pool=1, tail_window=10, planner_fns=planner_fns(mods))
    workload.setup(mods, seed=3)
    field = world.FieldSpec(5, 10)
    starts = [world.RobotState(1.5, 5, world.UP), world.RobotState(0.5, 4, world.DOWN)] * 3
    workload.instances = [
        mods.bench.Instance(i, field, start, world.GoalSpec(4, 2)) for i, start in enumerate(starts)
    ]
    return mods, workload


def _measure(workload):
    tally, untraced, *_ = run.measure(workload, seconds=120.0, tracer=None, host=HostSpeed())
    return tally, untraced


def test_every_instance_passes_with_the_real_planners():
    _, workload = _planning(lambda m: None)
    tally, execs = _measure(workload)
    assert (tally.attempted, tally.failed) == (6, 0)
    assert all(ex.ok for ex in execs)


def test_raising_planner_counts_one_failure_per_instance():
    def planners(mods):
        def flaky(request):
            if request.start.orientation == mods.world.DOWN:
                raise RuntimeError("stub planner failed")
            return mods.planners.plan_heuristic(request)

        ids = mods.planners.PlannerId
        return [(ids.HEURISTIC, flaky), (ids.GRAPH_ASTAR, mods.planners.plan_astar)]

    _, workload = _planning(planners)
    tally, execs = _measure(workload)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert sum(not ex.ok for ex in execs) == 3
    assert all("planner error" in msg for msg in tally.failures)


def test_wrong_length_plan_is_a_failure_even_when_it_arrives():
    def planners(mods):
        w = mods.world

        def detour(request):
            good = mods.planners.plan_heuristic(request)
            o = request.start.orientation
            raw = (w.Action(o, w.FORWARD), w.Action(o, w.BACKWARD), *good.raw_actions)
            return mods.planners.PlanResult(
                raw, mods.planners.dedup(raw), good.path_length + 2, 1, good.planner_id
            )

        ids = mods.planners.PlannerId
        return [(ids.HEURISTIC, detour), (ids.GRAPH_ASTAR, mods.planners.plan_astar)]

    _, workload = _planning(planners)
    tally, _ = _measure(workload)
    assert (tally.attempted, tally.failed) == (6, 6)
    assert all("!= oracle" in msg for msg in tally.failures)


def test_failed_run_prints_result_and_exits_nonzero(capsys, monkeypatch):
    def broken(request):
        raise RuntimeError("stub")

    def stub_workload():
        # set_up builds the workload after a fresh import of the package
        heuristic = sys.modules["croprow.planners"].PlannerId.HEURISTIC
        return Planning("wide-1000", 10, pool=3, tail_window=10, planner_fns=[(heuristic, broken)])

    monkeypatch.setitem(run.WORKLOADS, "wide-1000", stub_workload)
    code = run.main(["--workload", "wide-1000", "--seed", "1", "--seconds", "30", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] == 3


# --- metric names -----------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_metric_names_are_well_formed():
    named = latency_metrics("astar", [Timed(0, 1, 1.0)] * 30, 1000, "us", lambda t: t.value)
    names = [
        *run.END_TO_END, *PER_LAYER, *named, *run.WORKLOADS,
        *(m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in BENCHMARK[key]),
    ]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert len(set(run.END_TO_END) | set(PER_LAYER)) == len(run.END_TO_END) + len(PER_LAYER)


# --- input order ------------------------------------------------------------


def test_stratified_order_keeps_the_set_and_balances_every_prefix():
    class Inst:
        def __init__(self, instance_id, cost):
            self.instance_id, self.cost = instance_id, cost

    pool = [Inst(i, (i * 7919) % 1000) for i in range(1000)]
    order = stratified(pool, key=lambda i: i.cost, strata=20)
    assert sorted(i.instance_id for i in order) == list(range(1000))
    bands = {i.instance_id: rank * 20 // 1000 for rank, i in enumerate(sorted(pool, key=lambda i: i.cost))}
    for k in (1, 3, 7, 50):
        counts = [0] * 20
        for inst in order[: 20 * k]:
            counts[bands[inst.instance_id]] += 1
        assert counts == [k] * 20


# --- host speed ---------------------------------------------------------------


def test_host_factor_uses_the_median_of_samples_around_the_interval():
    host = HostSpeed()
    host.starts = [0, 10, 20, 30, 100, 110, 120, 130]
    host.kernel_ns = [9e9, 2e6, 2e6, 2e6, 2e6, 2e6, 4e6, 9e9]
    # three samples before 40 (2, 2, 2 ms) and three from 100 on (2, 2, 4 ms)
    assert host.factor(40, 90) == pytest.approx(1e6 / 2e6)
    assert host.norm(Timed(40, 90, 50.0)) == pytest.approx(25.0)
    host.sample(force=True)
    assert len(host.kernel_ns) == 9 and host.kernel_ns[-1] > 0
    with pytest.raises(ValueError):
        HostSpeed().factor(0, 1)
