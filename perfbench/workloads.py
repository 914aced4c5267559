"""The four benchmark workloads.

Each workload is a closed loop with one client in this process: the next
operation starts only after the previous one returned and was checked.  Every
input comes from the workload seed.  A workload times the program with its
own clock around public calls and never reads the program's self-reported
timings.  ``execute`` runs one operation.  Its ``wrap`` is the identity or
``Tracer.wrap``, so the same code serves the untraced and the traced runs, and
its ``probe`` samples the host speed between timed calls of a long operation.
``check`` compares the outputs with the simulator and the oracle, outside the
timed region.  Times are kept as ``Timed`` intervals so the harness can
express each at the host speed measured around it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

from stats import median, tail

CORRIDOR_LEN = 10
GEOMETRY = {"row_spacing_m": 0.75, "corridor_length_m": 30.0}
STRATA = 20

# Stage-1 configuration of the acceptance suite, with a shortened budget.
STAGE1_CONFIG = {
    "gamma": 0.90,
    "learning_rate": 5e-4,
    "train_frequency": 2,
    "buffer_capacity": 20_000,
    "hidden_sizes": (256, 256),
}
TRAIN_ROWS = 5
TRAIN_STEPS = 3_000
EVAL_EPISODES = 50
DQN_PLANS = 200


class Timed(NamedTuple):
    start: int
    end: int
    value: float  # nanoseconds, or nanoseconds per unit of work


def timed_since(start: int, per: int = 1) -> Timed:
    end = perf_counter_ns()
    return Timed(start, end, (end - start) / per)


@dataclass
class Execution:
    """What one run of one operation measured and produced."""

    busy: Timed  # the whole operation
    work: int  # units of work the throughput metric counts
    work_time: Timed  # the time that work took
    latency: list[Timed]  # samples of the workload's latency metric
    facts: dict = field(default_factory=dict)
    signature: object = None  # must repeat exactly when the operation repeats
    ok: bool = True


def untraced(name, fn):
    return fn


def trace_targets(tracer, mods) -> None:
    """Every call edge into a layer that some workload crosses.

    Small world helpers that planners call inside their search loops
    (``at_headland``, ``is_corridor``, ``goal_configs``) are left unwrapped
    and count toward the planner's self time.
    """
    w, p, b, wp, d, c = (mods.world, mods.planners, mods.bench, mods.waypoints, mods.dqn, mods.cli)
    for owner in (w, b, c):
        tracer.target(owner, "simulate", "world.simulate")
    tracer.target(w, "oracle_shortest", "world.oracle_shortest")
    tracer.target(w.Episode, "step", "world.Episode.step")
    tracer.target(c, "Episode", "world.Episode")
    tracer.target(d, "observe", "world.observe")
    tracer.target(p, "step", "world.step")
    tracer.target(c, "plan_astar", "planners.plan_astar")
    tracer.target(wp, "expand_macro_legs", "planners.expand_macro_legs")
    tracer.target(b, "run_benchmark", "bench.run_benchmark")
    for owner in (wp, c):
        tracer.target(owner, "compile_route", "waypoints.compile_route")
    for name in ("load_geometry", "write_csv", "write_geojson"):
        tracer.target(c, name, f"waypoints.{name}")
    for name in ("train_stage", "evaluate", "plan_dqn", "train_step", "td_targets", "clip_gradients"):
        tracer.target(d, name, f"dqn.{name}")
    tracer.target(d.QNetwork, "forward", "dqn.QNetwork.forward")
    tracer.target(d.QNetwork, "backward", "dqn.QNetwork.backward")
    tracer.target(d.Adam, "step", "dqn.Adam.step")


def latency_metrics(prefix: str, samples, window: int, unit: str, norm) -> dict:
    """p50 over every sample; the tail by the ladder rule over the first
    ``window`` samples, so that its percentile does not move with run speed.
    ``norm`` turns a Timed sample into nanoseconds at reference host speed."""
    if not samples:
        return {}
    scale = {"us": 1e3, "ms": 1e6}[unit]
    values = [norm(t) / scale for t in samples]
    t = tail(values[:window])
    return {
        f"{prefix}_p50_{unit}": (median(values), unit),
        f"{prefix}_tail_{unit}": (t.value, unit),
        f"{prefix}_tail_percentile": (t.percentile, "%"),
        f"{prefix}_tail_samples": (t.samples, "count"),
    }


def stratified(instances, key, strata: int = STRATA) -> list:
    """Reorder so that every prefix draws about equally from each stratum of
    ``key``: sort into equal-count strata, keep each stratum in generation
    order, and deal from the strata in turn.  The set is unchanged; a run
    that stops anywhere still sees the field's full range of cost."""
    ordered = sorted(instances, key=key)
    n = len(ordered)
    groups = [
        sorted(ordered[g * n // strata:(g + 1) * n // strata], key=lambda i: i.instance_id)
        for g in range(strata)
    ]
    dealt = itertools.zip_longest(*groups)
    return [inst for row in dealt for inst in row if inst is not None]


class PlannerClock:
    """The benchmark's clock around every call a bench.Planner makes."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.calls: list[tuple[Timed, object]] = []

    def __call__(self, request):
        t0 = perf_counter_ns()
        result = self.plan(request)
        self.calls.append((timed_since(t0), result))
        return result


class Planning:
    """Criterion-1 pipeline per instance: ``run_benchmark`` of heuristic and
    A*, the oracle, and the A* macros compiled to waypoints.  Instances come
    stratified by lateral distance, which sets the cost of A* and the oracle."""

    units = 1
    latency_name = "astar"

    def __init__(self, name: str, rows: int, pool: int, tail_window: int, planner_fns=None) -> None:
        self.name = name
        self.rows = rows
        self.pool = pool
        self.tail_window = tail_window
        self._planner_fns = planner_fns

    def setup(self, mods, seed: int) -> None:
        self.mods = mods
        field_spec = mods.world.FieldSpec(self.rows, CORRIDOR_LEN)
        self.instances = stratified(
            mods.bench.generate_instances(field_spec, self.pool, seed),
            key=lambda i: abs(i.start.corridor_x - i.goal.row),
        )
        self.geometry = mods.waypoints.FieldGeometry(**GEOMETRY)
        ids = mods.planners.PlannerId
        self.planner_fns = self._planner_fns or [
            (ids.HEURISTIC, mods.planners.plan_heuristic),
            (ids.GRAPH_ASTAR, mods.planners.plan_astar),
        ]

    def close(self) -> None:
        pass

    def ops(self):
        return ((inst.instance_id, inst) for inst in self.instances)

    def execute(self, inst, wrap, probe) -> Execution:
        m = self.mods
        clocks = [PlannerClock(wrap(f"planners.{fn.__name__}", fn)) for _, fn in self.planner_fns]
        planners = [m.bench.Planner(pid, clock) for (pid, _), clock in zip(self.planner_fns, clocks)]
        t0 = perf_counter_ns()
        records = m.bench.run_benchmark(planners, [inst])
        optimum = m.world.oracle_shortest(inst.field, inst.start, inst.goal)
        route = None
        if clocks[-1].calls:
            route = m.waypoints.compile_route(
                clocks[-1].calls[-1][1].macro_actions, inst.start, inst.field, self.geometry, goal=inst.goal
            )
        busy = timed_since(t0)
        timed = {pid.value: clock.calls[-1] for (pid, _), clock in zip(self.planner_fns, clocks) if clock.calls}
        facts = {
            "goal": (inst.field, inst.goal),
            "latency": {name: t for name, (t, _) in timed.items()},
            "plans": [(len(r.raw_actions), len(r.macro_actions)) for _, r in timed.values()],
            "points": len(route) if route is not None else 0,
            "planner_calls": sum(len(c.calls) for c in clocks),
            "timed_calls": len(records),
            "records": records,
            "optimum": optimum,
            "repeats": [[r for _, r in c.calls] for c in clocks],
        }
        latency = []
        if self.latency_name in timed:
            t, result = timed[self.latency_name]
            latency.append(t)
            facts["per_unit"] = t._replace(value=t.value / result.path_length)
        signature = (tuple((r.raw_actions, r.macro_actions) for _, r in timed.values()), optimum, facts["points"])
        return Execution(busy, 1, busy, latency, facts, signature)

    def check(self, inst, ex: Execution) -> list[tuple[str, str]]:
        facts = ex.facts
        problems = []
        if len(facts["records"]) != len(self.planner_fns):
            problems.append(("plan", f"{len(facts['records'])} records for {len(self.planner_fns)} planners"))
        for rec in facts["records"]:
            name = rec.planner_id.value
            if not rec.success:
                problems.append((name, f"replay failed: {rec.failure_reason}"))
            elif rec.path_length_units != facts["optimum"]:
                problems.append((name, f"length {rec.path_length_units} != oracle {facts['optimum']}"))
        for results in facts["repeats"]:
            first = (results[0].raw_actions, results[0].macro_actions) if results else None
            if any((r.raw_actions, r.macro_actions) != first for r in results):
                problems.append(("repeat", "warm-up and timed plans differ"))
        if facts["points"] < 1:
            problems.append(("route", "no waypoints compiled"))
        return [(label, f"instance {inst.instance_id}: {msg}") for label, msg in problems]

    def named(self, execs: list[Execution], e2e: dict, norm) -> dict:
        heuristic = [ex.facts["latency"]["heuristic"] for ex in execs if "heuristic" in ex.facts["latency"]]
        return {
            "verified_per_s": (e2e["throughput_per_s"], "1/s"),
            **latency_metrics("astar", [t for ex in execs for t in ex.latency], self.tail_window, "us", norm),
            **latency_metrics("heuristic", heuristic, self.tail_window, "us", norm),
        }


class Training:
    """Stage-1 training with a short budget, greedy evaluation, then
    ``plan_dqn`` on seeded instances, each plan replayed through the
    simulator.  Every round repeats the same seeded work, so rounds must
    agree exactly."""

    name = "train-5"
    units = 1 + DQN_PLANS
    # After 3,000 steps the greedy policy reaches the goal on roughly 5-20% of
    # instances; the rest run out of budget at 120 actions.  Short successful
    # plans carry plan_dqn's per-call set-up over one or two actions, so p90
    # falls on the edge between the two groups and moved by 22% between seeds.
    # A window of 99 makes the tail rule pick p75 (24 beyond), inside the
    # budget-limited group, which moved by 10%.
    tail_window = 99

    def setup(self, mods, seed: int) -> None:
        self.mods = mods
        d = mods.dqn
        self.field = mods.world.FieldSpec(TRAIN_ROWS, CORRIDOR_LEN)
        self.cfg = d.TrainConfig(**STAGE1_CONFIG)
        self.stage = d.CurriculumStage(TRAIN_ROWS, TRAIN_STEPS, CORRIDOR_LEN)
        self.train_seed = seed
        self.eval_seed = seed + 1
        self.instances = mods.bench.generate_instances(self.field, DQN_PLANS, seed + 2)

    def close(self) -> None:
        pass

    def ops(self):
        return itertools.repeat((0, None))

    def execute(self, _op, wrap, probe) -> Execution:
        d, w = self.mods.dqn, self.mods.world
        t0 = perf_counter_ns()
        net, _ = d.train_stage(self.stage, self.cfg, self.train_seed)
        train = timed_since(t0)
        probe(True)
        success = d.evaluate(net, self.field, EVAL_EPISODES, self.eval_seed)
        probe(True)
        plans = []
        per_action = []
        for inst in self.instances:
            ts = perf_counter_ns()
            result = d.plan_dqn(inst.request(), net)
            per_action.append(timed_since(ts, per=max(len(result.raw_actions), 1)))
            replay = w.simulate(inst.field, inst.start, inst.goal, list(result.raw_actions))
            plans.append((result, replay))
            probe(False)
        facts = {"eval_success": success, "dqn_plans": plans}
        signature = (success, tuple(r.raw_actions for r, _ in plans))
        return Execution(timed_since(t0), TRAIN_STEPS, train, per_action, facts, signature)

    def check(self, _op, ex: Execution) -> list[tuple[str, str]]:
        problems = []
        for i, (result, replay) in enumerate(ex.facts["dqn_plans"]):
            if replay.success != result.success:
                problems.append((f"plan{i}", f"plan_dqn success {result.success} but replay {replay.success}"))
            elif result.success and replay.total_distance != result.path_length:
                problems.append((f"plan{i}", f"length {result.path_length} but replay {replay.total_distance}"))
        # No oracle bound here: the policy may turn inside a corridor, a move
        # the oracle's graph leaves out, so its paths can be shorter.
        return problems

    def named(self, execs: list[Execution], e2e: dict, norm) -> dict:
        return {
            "train_steps_per_s": (e2e["throughput_per_s"], "1/s"),
            **latency_metrics("dqn_step", [t for ex in execs for t in ex.latency], self.tail_window, "us", norm),
        }


def _invoke(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class Cli:
    """One request is ``plan --planner astar --format json``, ``simulate`` in
    text mode on the plan's raw actions, and ``export`` of the plan JSON,
    each through ``croprow.cli.main`` with output captured."""

    name = "cli-65"
    units = 1
    rows = 65

    def __init__(self, pool: int, tail_window: int, work_dir: Path) -> None:
        self.pool = pool
        self.tail_window = tail_window
        self.dir = work_dir

    def setup(self, mods, seed: int) -> None:
        self.mods = mods
        field_spec = mods.world.FieldSpec(self.rows, CORRIDOR_LEN)
        self.instances = mods.bench.generate_instances(field_spec, self.pool, seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.plan_path = self.dir / "plan.json"
        self.geometry_path = self.dir / "geometry.txt"
        self.out_dir = self.dir / "out"
        self.geometry_path.write_text("".join(f"{k} = {v}\n" for k, v in GEOMETRY.items()))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.dir.parent.rmdir()  # only when no other run still uses it

    def ops(self):
        return ((inst.instance_id, inst) for inst in self.instances)

    def execute(self, inst, wrap, probe) -> Execution:
        main = self.mods.cli.main
        s, g = inst.start, inst.goal
        where = [
            "--rows", str(self.rows), "--len", str(CORRIDOR_LEN),
            "--start", f"{s.corridor_x},{s.y},{s.orientation}", "--goal", f"{g.row},{g.goal_y}",
        ]
        t0 = perf_counter_ns()
        plan = _invoke(wrap("cli.main.plan", main), ["plan", "--planner", "astar", "--format", "json", *where])
        plan_time = timed_since(t0)
        self.plan_path.write_text(plan[1])
        doc = json.loads(plan[1])
        actions = json.dumps(doc["raw_actions"], separators=(",", ":"))
        t1 = perf_counter_ns()
        sim = _invoke(wrap("cli.main.simulate", main), ["simulate", *where, "--actions", actions])
        sim_time = timed_since(t1)
        t2 = perf_counter_ns()
        export = _invoke(
            wrap("cli.main.export", main),
            ["export", "--plan-json", str(self.plan_path), "--geometry", str(self.geometry_path),
             "--output-dir", str(self.out_dir)],
        )
        export_time = timed_since(t2)
        busy = timed_since(t0)
        facts = {
            "codes": (plan[0], sim[0], export[0]),
            "doc": doc,
            "simulate_out": sim[1],
            "exported": export[1].split(),
            "commands": (plan_time, sim_time, export_time),
            "plans": [(len(doc["raw_actions"]), len(doc["macro_actions"]))],
        }
        return Execution(busy, 1, busy, [busy], facts, None)

    def check(self, inst, ex: Execution) -> list[tuple[str, str]]:
        facts = ex.facts
        problems = []
        for command, code in zip(("plan", "simulate", "export"), facts["codes"]):
            if code != 0:
                problems.append((command, f"exit code {code}"))
        doc = facts["doc"]
        optimum = self.mods.world.oracle_shortest(inst.field, inst.start, inst.goal)
        if not doc["success"] or doc["path_length"] != optimum:
            problems.append(("plan", f"success {doc['success']}, length {doc['path_length']} vs oracle {optimum}"))
        if "verdict: success" not in facts["simulate_out"]:
            problems.append(("simulate", "replay verdict is not success"))
        texts = []
        for name in facts["exported"]:
            path = Path(name)
            texts.append(path.read_text() if path.is_file() else "")
        if not texts or not all(texts):
            problems.append(("export", f"missing or empty waypoint files {facts['exported']}"))
        else:
            facts["points"] = len(texts[0].splitlines()) - 1
        ex.signature = (doc["raw_actions"], doc["path_length"], facts["simulate_out"], tuple(texts))
        return [(label, f"instance {inst.instance_id}: {msg}") for label, msg in problems]

    def named(self, execs: list[Execution], e2e: dict, norm) -> dict:
        out = {
            "requests_per_s": (e2e["throughput_per_s"], "1/s"),
            **latency_metrics("request", [t for ex in execs for t in ex.latency], self.tail_window, "ms", norm),
        }
        for i, command in enumerate(("plan", "simulate", "export")):
            out[f"{command}_p50_ms"] = (median([norm(ex.facts["commands"][i]) for ex in execs]) / 1e6, "ms")
        return out
