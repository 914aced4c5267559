"""Per-layer metrics of a traced run, derived from its spans.

``PER_LAYER`` is reported on every workload.  A share or count of a layer
that the workload never calls is 0.  Per-call times exist only where the call
happens, so all but the two ``world`` times, which every workload exercises,
are reported in ``detail`` and only on the workloads that make the call.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, ancestor_names, self_by_layer, self_times
from stats import median

LAYERS = ("world", "planners", "bench", "waypoints", "dqn", "cli", "harness")

PER_LAYER = {
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
    "world.episode_step_us": "us",
    "world.simulate_us_per_action": "us",
    "world.oracle_self_share": "fraction",
    "world.oracle_goal_reuse": "fraction",
    "planners.astar_self_share": "fraction",
    "planners.raw_actions_per_plan": "count",
    "planners.macro_actions_per_plan": "count",
    "bench.useful_call_ratio": "fraction",
    "waypoints.points_per_route": "count",
    "dqn.updates": "count",
    "dqn.env_share": "fraction",
    "dqn.eval_success": "fraction",
    "cli.replays_per_simulate": "count",
    "trace.overhead_frac": "fraction",
}

# Counts that must repeat exactly on one seed are taken over the first
# COUNT_WINDOW traced operations, which a run of any length reaches.
COUNT_WINDOW = 20

SCALE = {"us": 1e3, "ms": 1e6}
DETAIL_P50 = {
    "world.oracle_ms": ("world.oracle_shortest", "ms"),
    "waypoints.compile_us": ("waypoints.compile_route", "us"),
    "dqn.train_step_us": ("dqn.train_step", "us"),
    "dqn.td_targets_us": ("dqn.td_targets", "us"),
    "dqn.backward_us": ("dqn.QNetwork.backward", "us"),
    "dqn.clip_us": ("dqn.clip_gradients", "us"),
    "dqn.adam_us": ("dqn.Adam.step", "us"),
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(spans: list[Span], traced, untraced, goal_reuse: float, traced_wall_ns: int, factor):
    """Return (metrics, detail, problems) for the traced executions.

    ``untraced`` are the same operations run without tracing, for the
    overhead; ``goal_reuse`` is a property of the instances the run visited;
    ``traced_wall_ns`` is the traced operations' time on the harness clock,
    which the self times of all layers plus the harness must account for;
    ``factor(start, end)`` expresses a time at reference host speed, and
    every reported time goes through it.
    """
    selfs = self_times(spans)
    by_layer = self_by_layer(spans, selfs)
    ops_ns = sum(s.duration for s in spans if s.name == "harness.op")
    durations: dict[str, list[float]] = defaultdict(list)  # at reference speed
    self_sum: dict[str, int] = defaultdict(int)  # raw, for shares
    for span, own in zip(spans, selfs):
        durations[span.name].append(span.duration * factor(span.start, span.end))
        self_sum[span.name] += own

    def share(ns: float) -> float:
        return ns / ops_ns if ops_ns else 0.0

    def p50(name: str, unit: str = "us") -> float:
        return median(durations[name]) / SCALE[unit] if durations[name] else 0.0

    steps_in: dict[int, int] = defaultdict(int)
    updates: dict[int, int] = defaultdict(int)
    env_ns = 0
    forward_b1 = []
    replays = 0
    for i, span in enumerate(spans):
        above = list(ancestor_names(spans, i))
        if span.name == "world.Episode.step" and span.parent >= 0:
            steps_in[span.parent] += 1
        elif span.name == "dqn.Adam.step":
            updates[span.op] += 1
        elif span.name == "dqn.QNetwork.forward" and "dqn.td_targets" not in above:
            forward_b1.append(span.duration * factor(span.start, span.end))
        if span.layer == "world" and "dqn.train_stage" in above:
            env_ns += selfs[i]
        if span.name in ("world.simulate", "world.Episode") and "cli.main.simulate" in above:
            replays += 1
    simulate = [i for i, s in enumerate(spans) if s.name == "world.simulate"]
    simulate_actions = sum(steps_in[i] for i in simulate)

    window = traced[:COUNT_WINDOW]
    plans = [plan for ex in window for plan in ex.facts.get("plans", [])]
    points = [ex.facts["points"] for ex in window if "points" in ex.facts]
    planner_calls = sum(ex.facts.get("planner_calls", 0) for ex in traced)
    timed_calls = sum(ex.facts.get("timed_calls", 0) for ex in traced)
    eval_success = [ex.facts["eval_success"] for ex in traced if "eval_success" in ex.facts]
    untraced_ns = sum(ex.busy.value * factor(ex.busy.start, ex.busy.end) for ex in untraced)
    traced_ns = sum(ex.busy.value * factor(ex.busy.start, ex.busy.end) for ex in traced)

    metrics = {f"{layer}.self_share": share(by_layer.get(layer, 0)) for layer in LAYERS}
    metrics.update({
        "world.episode_step_us": p50("world.Episode.step"),
        "world.simulate_us_per_action": (
            sum(durations["world.simulate"]) / simulate_actions / 1e3 if simulate_actions else 0.0
        ),
        "world.oracle_self_share": share(self_sum["world.oracle_shortest"]),
        "world.oracle_goal_reuse": goal_reuse,
        "planners.astar_self_share": share(self_sum["planners.plan_astar"]),
        "planners.raw_actions_per_plan": _mean([raw for raw, _ in plans]),
        "planners.macro_actions_per_plan": _mean([macro for _, macro in plans]),
        "bench.useful_call_ratio": timed_calls / planner_calls if planner_calls else 0.0,
        "waypoints.points_per_route": _mean(points),
        "dqn.updates": updates[min(updates)] if updates else 0,
        "dqn.env_share": env_ns / sum(durations["dqn.train_stage"]) if durations["dqn.train_stage"] else 0.0,
        "dqn.eval_success": eval_success[0] if eval_success else 0.0,
        "cli.replays_per_simulate": (
            replays / len(durations["cli.main.simulate"]) if durations["cli.main.simulate"] else 0.0
        ),
        "trace.overhead_frac": traced_ns / untraced_ns - 1.0 if untraced_ns else 0.0,
    })

    detail = {name: (p50(span, unit), unit) for name, (span, unit) in DETAIL_P50.items() if durations[span]}
    if forward_b1:
        detail["dqn.forward_b1_us"] = (median(forward_b1) / 1e3, "us")
    per_unit = [t.value * factor(t.start, t.end) for t in (ex.facts.get("per_unit") for ex in traced) if t]
    if per_unit:
        detail["planners.astar_us_per_path_unit"] = (median(per_unit) / 1e3, "us")
    for command in ("plan", "simulate", "export"):
        own = [selfs[i] * factor(s.start, s.end) for i, s in enumerate(spans) if s.name == f"cli.main.{command}"]
        if own:
            detail[f"cli.{command}_self_ms"] = (median(own) / 1e6, "ms")
    detail["trace.spans"] = (len(spans), "count")
    detail["trace.accounted_frac"] = (sum(selfs) / traced_wall_ns if traced_wall_ns else 0.0, "fraction")

    # evaluation success and plans are compared between rounds by the
    # harness; the update count is only visible in the spans
    problems = []
    if len(set(updates.values())) > 1:
        problems.append(("repeat", f"dqn.updates differ between rounds: {sorted(set(updates.values()))}"))
    return metrics, detail, problems
