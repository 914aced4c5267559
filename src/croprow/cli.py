"""Plan, benchmark, train, replay, and export field navigation routes.

Exit codes: 0 on success, 1 on usage or validation errors, 2 when planning or
replay reports failure.  The resolved configuration and progress notes go to
standard error; standard output carries only the result (text or JSON).
Action sequences on the wire use the bracketed form [[orientation,move],...].
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from croprow import __version__
from croprow.bench import (
    Planner,
    emit_report,
    generate_instances,
    run_benchmark,
    scaling_sweep,
    timed_call,
)
from croprow.dqn import (
    CurriculumStage,
    TrainConfig,
    load_checkpoint,
    plan_dqn,
    run_curriculum,
    save_checkpoint,
)
from croprow.planners import (
    PlannerId,
    PlanRequest,
    plan_astar,
    plan_heuristic,
)
from croprow.waypoints import (
    compile_route,
    load_geometry,
    to_world,
    write_csv,
    write_geojson,
)
from croprow.world import UP, Action, FieldSpec, GoalSpec, RobotState, simulate
# no longer called here; kept because perfbench/workloads.py traces cli.Episode by name
from croprow.world import Episode  # noqa: F401


def _log(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # planning/replay failure in our exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        _log(f"error: {message}")
        raise SystemExit(1)


def _brackets(actions) -> str:
    return json.dumps([[a.orientation, a.move] for a in actions], separators=(",", ":"))


def _parse_state(text: str) -> RobotState:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"start must be x,y,orientation, got {text!r}")
    return RobotState(float(parts[0]), int(parts[1]), int(parts[2]))


def _parse_goal(text: str) -> GoalSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"goal must be row,y, got {text!r}")
    return GoalSpec(int(parts[0]), int(parts[1]))


def _parse_actions(text: str) -> list[Action]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"actions are not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ValueError("actions must be a JSON list of [orientation,move] pairs")
    actions = []
    for i, pair in enumerate(doc):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise ValueError(f"action {i} is not an [orientation,move] int pair")
        actions.append(Action(pair[0], pair[1]))
    return actions


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_stages(text: str) -> list[int]:
    """Either a single width ("5") or a range with step ("5..65:5")."""
    if ".." not in text:
        return [int(text)]
    first_text, _, rest = text.partition("..")
    last_text, _, step_text = rest.partition(":")
    if not step_text:
        raise ValueError(f"stage range needs a step, e.g. 5..65:5, got {text!r}")
    first, last, step = int(first_text), int(last_text), int(step_text)
    if step <= 0 or last < first:
        raise ValueError(f"bad stage range {text!r}")
    return list(range(first, last + 1, step))


def _parse_sizes(text: str) -> list[int]:
    sizes = [int(part) for part in text.split(",") if part]
    if not sizes or sorted(sizes) != sizes:
        raise ValueError(f"sizes must be ascending, got {text!r}")
    return sizes


def _echo_config(args: argparse.Namespace) -> None:
    shown = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and value is not None
    }
    _log("config: " + " ".join(f"{k}={v}" for k, v in shown.items()))


def _build_planners(names: list[str], model_path: str | None) -> list[Planner]:
    planners = []
    for name in names:
        if name == PlannerId.HEURISTIC.value:
            planners.append(Planner(PlannerId.HEURISTIC, plan_heuristic))
        elif name == PlannerId.GRAPH_ASTAR.value:
            planners.append(Planner(PlannerId.GRAPH_ASTAR, plan_astar))
        elif name == PlannerId.DQN.value:
            if model_path is None:
                raise ValueError("planner 'dqn' requires --model")
            net, _ = load_checkpoint(model_path)
            planners.append(
                Planner(PlannerId.DQN, lambda request, _net=net: plan_dqn(request, _net))
            )
        else:
            raise ValueError(f"unknown planner {name!r}")
    return planners


def cmd_plan(args: argparse.Namespace) -> int:
    field = FieldSpec(args.rows, args.len)
    request = PlanRequest(field, _parse_state(args.start), _parse_goal(args.goal))
    result, elapsed_ns = timed_call(_build_planners([args.planner], args.model)[0], request)
    if args.format == "json":
        doc = {
            "planner": result.planner_id.value,
            "rows": field.num_rows,
            "len": field.corridor_len,
            "start": [request.start.corridor_x, request.start.y, request.start.orientation],
            "goal": [request.goal.row, request.goal.goal_y],
            "macro_actions": [[a.orientation, a.move] for a in result.macro_actions],
            "raw_actions": [[a.orientation, a.move] for a in result.raw_actions],
            "path_length": result.path_length,
            "planning_time_ns": elapsed_ns,
            "success": result.success,
            "failure_reason": result.failure_reason,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"macro {_brackets(result.macro_actions)}")
        print(f"raw {_brackets(result.raw_actions)}")
        print(f"path length {result.path_length:g}")
        print(f"planning time {elapsed_ns / 1e6:.3f} ms")
    if not result.success:
        _log(f"planning failed: {result.failure_reason}")
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    names = [part for part in args.planners.split(",") if part]
    if not names:
        raise ValueError("--planners names no planner")
    planners = _build_planners(names, args.model)
    out_dir = Path(args.output_dir)
    if args.scaling:
        sizes = _parse_sizes(args.scaling)
        doc = {}
        for planner in planners:
            results = scaling_sweep(
                planner,
                sizes,
                seed=args.seed,
                instances_per_size=args.n,
                corridor_len=args.len,
            )
            doc[planner.planner_id.value] = [
                {
                    "num_rows": r.num_rows,
                    "instances": r.instances,
                    "mean_time_ns": r.mean_time_ns,
                    "success_rate": r.success_rate,
                }
                for r in results
            ]
            print(f"{planner.planner_id.value} scaling:")
            print(f"  {'rows':>5} {'instances':>9} {'mean ms':>9} {'success':>8}")
            for r in results:
                print(
                    f"  {r.num_rows:>5} {r.instances:>9} {r.mean_time_ns / 1e6:>9.3f} "
                    f"{r.success_rate * 100:>7.2f}%"
                )
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "scaling.json", "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        _log(f"wrote {out_dir / 'scaling.json'}")
        return 0
    field = FieldSpec(args.rows, args.len)
    _log(f"generating {args.n} instances at rows={args.rows} len={args.len}")
    instances = generate_instances(field, args.n, args.seed)
    records = run_benchmark(planners, instances, repetitions=args.repetitions)
    report = emit_report(records, out_dir)
    print(report["table"])
    _log(f"wrote {out_dir / 'benchmark.csv'} and {out_dir / 'benchmark.json'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    stage_rows = _parse_stages(args.stages)
    stages = [
        CurriculumStage(rows, args.steps, corridor_len=args.len) for rows in stage_rows
    ]
    cfg = TrainConfig()
    t0 = time.perf_counter()
    net, logs = run_curriculum(stages, cfg, args.seed)
    _log(f"trained {len(stages)} stage(s) in {time.perf_counter() - t0:.1f}s")
    save_checkpoint(args.out, net, cfg, stage_rows=stage_rows[-1], seed=args.seed)
    log_path = Path(str(args.out) + ".log.csv")
    lines = ["stage_rows,episode,return,success"]
    for rows in stage_rows:
        for entry in logs[rows]:
            lines.append(f"{rows},{entry.episode},{entry.ret!r},{str(entry.success).lower()}")
    log_path.write_text("\n".join(lines) + "\n")
    print(str(args.out))
    _log(f"wrote training log {log_path}")
    return 0


def _render(field: FieldSpec, state: RobotState, goal: GoalSpec) -> str:
    width = 2 * field.num_rows - 1
    lines = []
    for y in range(field.corridor_len, -2, -1):
        chars = []
        for col in range(width):
            char = " "
            if col % 2 == 0 and 0 <= y < field.corridor_len:
                char = "*" if (col // 2, y) == (goal.row, goal.goal_y) else "#"
            chars.append(char)
        if state.y == y:
            chars[int(2 * state.corridor_x)] = "^" if state.orientation == UP else "v"
        lines.append("".join(chars).rstrip())
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    field = FieldSpec(args.rows, args.len)
    start = _parse_state(args.start)
    goal = _parse_goal(args.goal)
    actions = _parse_actions(args.actions)
    result = simulate(field, start, goal, actions)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "success": result.success,
                    "distance": result.total_distance,
                    "reward": result.total_reward,
                    "steps": result.steps,
                    "failure_reason": result.failure_reason,
                },
                indent=2,
            )
        )
    else:
        print("start:")
        print(_render(field, start, goal))
        for i, (action, outcome) in enumerate(zip(actions, result.outcomes)):
            print(f"step {i}: action {_brackets([action])} reward {outcome.reward:+.1f}")
            print(_render(field, outcome.next_state, goal))
        print(f"verdict: {'success' if result.success else 'failure'}")
        if result.failure_reason:
            print(f"reason: {result.failure_reason}")
        print(f"distance: {result.total_distance:g}")
        print(f"reward: {result.total_reward:.1f}")
        print(f"steps: {result.steps}")
    return 0 if result.success else 2


def cmd_export(args: argparse.Namespace) -> int:
    with open(args.plan_json) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("plan JSON must be an object")
    for key in ("rows", "len", "start", "macro_actions"):
        if key not in doc:
            raise ValueError(f"plan JSON is missing {key!r}")
    try:
        field = FieldSpec(int(doc["rows"]), int(doc["len"]))
        sx, sy, so = doc["start"]
        start = RobotState(float(sx), int(sy), int(so))
        goal = None
        if doc.get("goal") is not None:
            row, goal_y = doc["goal"]
            goal = GoalSpec(int(row), int(goal_y))
        macros = [Action(int(o), int(m)) for o, m in doc["macro_actions"]]
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed plan JSON: {exc}") from exc
    geometry = load_geometry(args.geometry)
    path = compile_route(macros, start, field, geometry, goal=goal)
    if args.frame == "world":
        path = to_world(path, geometry)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in (None, "csv"):
        target = out_dir / "waypoints.csv"
        write_csv(path, target)
        written.append(target)
    if args.format in (None, "json"):
        target = out_dir / "waypoints.geojson"
        write_geojson(path, target)
        written.append(target)
    for target in written:
        print(str(target))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="croprow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("plan", help="plan one route")
    p.add_argument("--planner", required=True, choices=("heuristic", "astar", "dqn"))
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--start", required=True, help="x,y,orientation")
    p.add_argument("--goal", required=True, help="row,y")
    p.add_argument("--model", help="checkpoint path (required for dqn)")
    p.add_argument("--format", choices=("json",), help="print JSON instead of text")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="benchmark planners")
    p.add_argument("--planners", required=True, help="comma list: heuristic,astar,dqn")
    p.add_argument("--n", type=_count, default=1000, help="instances (per size)")
    p.add_argument("--rows", type=int, default=65)
    p.add_argument("--len", type=int, default=10)
    p.add_argument("--model", help="checkpoint path (required for dqn)")
    p.add_argument("--scaling", help="comma list of sizes, e.g. 10,65,200")
    p.add_argument("--repetitions", type=_count, default=1, help="timed reps per instance")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--output-dir", default=".", help="directory for generated files")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train the policy")
    p.add_argument("--stages", required=True, help='"5" or "5..65:5"')
    p.add_argument("--steps", type=_count, required=True, help="env steps per stage")
    p.add_argument("--len", type=int, default=10)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="replay an action sequence")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--start", required=True, help="x,y,orientation")
    p.add_argument("--goal", required=True, help="row,y")
    p.add_argument("--actions", required=True, help="JSON [[orientation,move],...]")
    p.add_argument("--format", choices=("json",), help="print JSON instead of text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="compile metric waypoints")
    p.add_argument("--plan-json", required=True, help="document from plan --format json")
    p.add_argument("--geometry", required=True, help="geometry config file")
    p.add_argument(
        "--frame", choices=("local", "world"), default="local", help="output frame"
    )
    p.add_argument("--output-dir", default=".", help="directory for generated files")
    p.add_argument("--format", choices=("csv", "json"), help="write only this format")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    _echo_config(args)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
