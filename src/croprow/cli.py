"""Plan, benchmark, train, replay, and export field navigation routes.

Exit codes: 0 on success, 1 on usage or validation errors, 2 when planning or
replay reports failure, 130 when interrupted; a reader that closes standard
output early changes none of them, nor does a closed standard error.  The
resolved configuration and progress notes go to standard error; standard
output carries only the result (text or JSON).  Action sequences on the wire
use the bracketed form [[orientation,move],...].  Export compiles the macros
of a plan's raw actions, and refuses them unless they replay to those actions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict
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
    dedup,
    plan_astar,
    plan_heuristic,
)
from croprow.waypoints import (
    _path_from_legs,
    compile_route,  # noqa: F401 - not called here; perfbench/workloads.py traces cli.compile_route
    expand_macro_legs,
    load_geometry,
    to_world,
    write_csv,
    write_geojson,
)
from croprow.world import UP, Action, FieldSpec, GoalSpec, RobotState, simulate
from croprow.world import Episode  # noqa: F401 - not called here; perfbench/workloads.py traces cli.Episode


PLANNER_NAMES = tuple(planner_id.value for planner_id in PlannerId)
MAX_WIDTHS = 10_000  # widths ascend, so the k-th has over k rows: 10,000 reach a field, and a network head, past 10,000
MAX_SAMPLED = 2**63  # numpy's Generator.integers draws below at most 2**63; bench and train draw below --len
MAX_ROWS = 2**52 + 1  # the widest field whose corridor centerlines k + 0.5 are all floats; a wider one samples off them


def _log(message: str) -> None:
    """One note on standard error, dropped when standard error cannot take it."""
    if sys.stderr is None:  # Python started without it; print would write to stdout
        return
    try:
        print(message, file=sys.stderr)
    except OSError:  # closed, as with `2>&-`
        pass


def _out(text: str) -> None:
    """One line of the result, flushed; once its reader has gone, the run goes on with
    standard output at os.devnull, as the Python docs' note on SIGPIPE advises."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # planning/replay failure in our exit-code contract
    def error(self, message):
        _log(f"{self.format_usage()}error: {message}")  # print_usage(None) would write to stdout
        raise SystemExit(1)


def _brackets(actions) -> str:
    return json.dumps(actions, separators=(",", ":"))


def _convert(kind: type, text: str, where: str):
    """kind(text); an error names where the text came from."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: {kind.__name__} expected, got {text!r}") from None


def _parse_fields(flag: str, text: str, kinds: dict[str, type]) -> list:
    """A flag's comma-separated fields; an error names the flag and the field."""
    parts = text.split(",")
    if len(parts) != len(kinds):
        raise ValueError(f"{flag} must be {','.join(kinds)}, got {text!r}")
    fields = zip(kinds.items(), parts)
    return [_convert(kind, part, f"{flag} {name}") for (name, kind), part in fields]


def _parse_start_goal(args: argparse.Namespace) -> tuple[RobotState, GoalSpec]:
    start = _parse_fields("--start", args.start, {"x": float, "y": int, "orientation": int})
    return RobotState(*start), GoalSpec(*_parse_fields("--goal", args.goal, {"row": int, "y": int}))


def _is_int(value) -> bool:
    """A JSON integer: JSON's true and false decode to bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _action_pairs(doc, name: str) -> list[Action]:
    """Actions from a decoded JSON list of [orientation,move] int pairs."""
    if not isinstance(doc, list):
        raise ValueError(f"{name} must be a JSON list of [orientation,move] pairs")
    for i, pair in enumerate(doc):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise ValueError(f"action {i} is not an [orientation,move] int pair")
    return [Action(*pair) for pair in doc]


def _parse_actions(text: str) -> list[Action]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"actions are not valid JSON: {exc}") from exc
    return _action_pairs(doc, "actions")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # argparse would name the type function, not the int it expects
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str, least: int = 1) -> int:
    if (value := _int(text)) < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _seed(text: str) -> int:
    return _count(text, 0)  # numpy's generators take no negative seed


def _sampled(text: str) -> int:
    if (value := _int(text)) > MAX_SAMPLED:  # before any instance is drawn or --output-dir made
        raise argparse.ArgumentTypeError(f"must be at most 2**63, the largest bound numpy draws below, got {value}")
    return value


def _widths(text: str) -> list[int]:
    """Field widths for --rows and --stages: comma-separated parts, each an int or an inclusive
    range A..B:S, strictly ascending so that no width runs twice, each counted before it is listed."""
    widths, count = [], 0
    for part in text.split(","):
        first, dots, rest = part.partition("..")
        last, colon, step = rest.partition(":")
        if dots and not colon:
            raise argparse.ArgumentTypeError(f"range needs a step, e.g. 5..65:5, got {part!r}")
        first, last, step = map(_int, (first, last, step) if dots else (part, part, "1"))  # A is A..A:1
        if step < 1 or last < first:
            raise argparse.ArgumentTypeError(f"range must ascend by a step of at least 1, got {part!r}")
        if (count := count + (last - first) // step + 1) > MAX_WIDTHS:
            raise argparse.ArgumentTypeError(f"more than the {MAX_WIDTHS:,} widths one run takes, got {text!r}")
        if last > MAX_ROWS:  # before any instance is drawn or --output-dir made
            raise argparse.ArgumentTypeError(f"must be at most 2**52 + 1, past which corridors are inexact, got {last}")
        widths += range(first, last + 1, step)
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise argparse.ArgumentTypeError(f"widths must be strictly ascending, got {text!r}")
    return widths


def _echo_config(args: argparse.Namespace) -> None:
    shown = [(k, ",".join(map(str, v)) if isinstance(v, list) else v) for k, v in sorted(vars(args).items())]
    _log("config: " + " ".join(f"{k}={v}" for k, v in shown if k != "func" and v is not None))


def _build_planners(names: list[str], model_path: str | None, rows: int) -> list[Planner]:
    # looked up per call, so a patched module global is the one called
    registry = {PlannerId.HEURISTIC: plan_heuristic, PlannerId.GRAPH_ASTAR: plan_astar}
    if model_path is not None and PlannerId.DQN.value not in names:  # it would go unread
        raise ValueError("--model is read only by planner 'dqn'")
    planners = []
    for name in names:
        if name not in PLANNER_NAMES:
            raise ValueError(f"unknown planner {name!r}")
        planner_id = PlannerId(name)
        if any(p.planner_id is planner_id for p in planners):  # a repeat would run twice
            raise ValueError(f"planner {name!r} named twice")
        if planner_id is PlannerId.DQN:
            if model_path is None:
                raise ValueError("planner 'dqn' requires --model")
            net, _ = load_checkpoint(model_path)
            net.max_rows_for(rows)  # before bench generates or writes anything
            registry[planner_id] = lambda request, _net=net: plan_dqn(request, _net)
        planners.append(Planner(planner_id, registry[planner_id]))
    return planners


def cmd_plan(args: argparse.Namespace) -> int:
    field = FieldSpec(args.rows, args.len)
    start, goal = _parse_start_goal(args)
    request = PlanRequest(field, start, goal)
    result, elapsed_ns = timed_call(_build_planners([args.planner], args.model, args.rows)[0], request)
    if args.format == "json":
        doc = {
            "planner": result.planner_id.value,
            "rows": field.num_rows,
            "len": field.corridor_len,
            "start": request.start,
            "goal": request.goal,
            "macro_actions": result.macro_actions,
            "raw_actions": result.raw_actions,
            "path_length": result.path_length,
            "planning_time_ns": elapsed_ns,
            "nodes_expanded": result.nodes_expanded,
            "success": result.success,
            "failure_reason": result.failure_reason,
        }
        _out(json.dumps(doc, indent=2))
    else:
        _out(f"macro {_brackets(result.macro_actions)}")
        _out(f"raw {_brackets(result.raw_actions)}")
        _out(f"path length {result.path_length:g}")
        _out(f"planning time {elapsed_ns / 1e6:.3f} ms")
        _out(f"nodes expanded {result.nodes_expanded}")
    if not result.success:
        _log(f"planning failed: {result.failure_reason}")
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    names = [part for part in args.planners.split(",") if part]
    if not names:
        raise ValueError("--planners names no planner")
    fields = [FieldSpec(rows, args.len) for rows in args.rows]  # each size checked before the mkdir
    planners = _build_planners(names, args.model, args.rows[-1])
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before any planning, which can take minutes
    if len(args.rows) > 1:
        doc = {}
        for planner in planners:
            results = scaling_sweep(
                planner,
                args.rows,
                seed=args.seed,
                instances_per_size=args.n,
                corridor_len=args.len,
                repetitions=args.repetitions,
            )
            doc[planner.planner_id.value] = [asdict(r) for r in results]
            _out(f"{planner.planner_id.value} scaling:")
            _out(f"  {'rows':>5} {'instances':>9} {'mean ms':>9} {'success':>8}")
            for r in results:
                _out(
                    f"  {r.num_rows:>5} {r.instances:>9} {r.mean_time_ns / 1e6:>9.3f} "
                    f"{r.success_rate * 100:>7.2f}%"
                )
        with open(out_dir / "scaling.json", "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        _log(f"wrote {out_dir / 'scaling.json'}")
        return 0
    _log(f"generating {args.n} instances at rows={args.rows[0]} len={args.len}")
    instances = generate_instances(fields[0], args.n, args.seed)
    records = run_benchmark(planners, instances, repetitions=args.repetitions)
    report = emit_report(records, out_dir)
    _out(report["table"])
    _log(f"wrote {out_dir / 'benchmark.csv'} and {out_dir / 'benchmark.json'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # checked before hours of training
        raise ValueError(f"--out must name a file in an existing directory, got {args.out!r}")
    stages = [
        CurriculumStage(rows, args.steps, corridor_len=args.len) for rows in args.stages
    ]
    cfg = TrainConfig()
    t0 = time.perf_counter()
    net, logs = run_curriculum(stages, cfg, args.seed)
    _log(f"trained {len(stages)} stage(s) in {time.perf_counter() - t0:.1f}s")
    save_checkpoint(args.out, net, cfg, stage_rows=args.stages[-1], seed=args.seed)
    log_path = Path(str(args.out) + ".log.csv")
    lines = ["stage_rows,episode,return,success"]
    for rows in args.stages:
        for entry in logs[rows]:
            lines.append(f"{rows},{entry.episode},{entry.ret!r},{str(entry.success).lower()}")
    log_path.write_text("\n".join(lines) + "\n")
    _out(str(args.out))
    _log(f"wrote training log {log_path}")
    return 0


def _render(field: FieldSpec, goal: GoalSpec) -> Callable[[RobotState], str]:
    """The picture of the field with the goal, as a function of the robot's
    state, for a goal and states that ``simulate`` accepted.  The lines without
    the robot are built here, once; each picture rebuilds only the robot's."""
    interior = "#" + " #" * (field.num_rows - 1)
    top = field.corridor_len
    plain = [interior if 0 <= y < top else " " * len(interior) for y in range(top, -2, -1)]
    g, x = top - int(goal.goal_y), 2 * goal.row
    plain[g] = plain[g][:x] + "*" + plain[g][x + 1:]
    lines = [line.rstrip() for line in plain]

    def picture(state: RobotState) -> str:
        i, x = top - int(state.y), int(2 * state.corridor_x)
        robot = plain[i][:x] + ("^" if state.orientation == UP else "v") + plain[i][x + 1:]
        return "\n".join([*lines[:i], robot.rstrip(), *lines[i + 1:]])

    return picture


def cmd_simulate(args: argparse.Namespace) -> int:
    field = FieldSpec(args.rows, args.len)
    start, goal = _parse_start_goal(args)
    actions = _parse_actions(args.actions)
    result = simulate(field, start, goal, actions)
    if args.format == "json":
        _out(
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
        draw = (2 * field.num_rows - 1) * (field.corridor_len + 2) <= 120_000  # a picture's characters
        if not draw:
            _log(f"field too large to draw: {field.num_rows} rows, length {field.corridor_len}")
        picture = _render(field, goal) if draw else None
        _out("start:")
        if picture:
            _out(picture(start))
        for i, (action, outcome) in enumerate(zip(actions, result.outcomes)):
            _out(f"step {i}: action {_brackets([action])} reward {outcome.reward:+.1f}")
            if picture:
                _out(picture(outcome.next_state))
        _out(f"verdict: {'success' if result.success else 'failure'}")
        if result.failure_reason:
            _out(f"reason: {result.failure_reason}")
        _out(f"distance: {result.total_distance:g}")
        _out(f"reward: {result.total_reward:.1f}")
        _out(f"steps: {result.steps}")
    return 0 if result.success else 2


def cmd_export(args: argparse.Namespace) -> int:
    with open(args.plan_json) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("plan JSON must be an object")
    for key in ("rows", "len", "start", "goal", "raw_actions"):
        if key not in doc:
            raise ValueError(f"plan JSON is missing {key!r}")
    start, goal = doc["start"], doc["goal"]
    if not (isinstance(start, list) and len(start) == 3):
        raise ValueError(f"plan JSON start must be [x,y,orientation], got {start!r}")
    if not (isinstance(goal, list) and len(goal) == 2):
        raise ValueError(f"plan JSON goal must be [row,y], got {goal!r}")
    if not all(map(_is_int, [doc["rows"], doc["len"], *start[1:], *goal])):
        raise ValueError("plan JSON rows, len, start y, orientation and goal must be integers")
    x = start[0]
    # inside a float's finite range: not nan, not inf, not an int too large for a float
    if not ((_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max):
        raise ValueError(f"plan JSON start x must be a finite number, got {x!r}")
    field = FieldSpec(doc["rows"], doc["len"])
    start, goal = RobotState(float(x), start[1], start[2]), GoalSpec(*goal)
    raw = _action_pairs(doc["raw_actions"], "raw_actions")
    macros = dedup(raw)
    replayed, legs = expand_macro_legs(field, start, macros, goal)
    if replayed != raw:  # a turn inside a corridor, say
        raise ValueError("plan JSON raw_actions are not what their macros replay to")
    geometry = load_geometry(args.geometry)
    path = _path_from_legs(macros, legs, start, field, geometry)
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
        _out(str(target))
    return 0


@functools.cache  # built on the first main() call, then reused
def build_parser() -> _Parser:
    parser = _Parser(prog="croprow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("plan", help="plan one route")
    p.add_argument("--planner", required=True, choices=PLANNER_NAMES)
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
    p.add_argument("--rows", type=_widths, default="65", help="width, or widths to sweep: 10,65,200")
    p.add_argument("--len", type=_sampled, default=10)
    p.add_argument("--model", help="checkpoint path (required for dqn)")
    p.add_argument("--repetitions", type=_count, default=1, help="timed reps per instance")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
    p.add_argument("--output-dir", default=".", help="directory for generated files")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train the policy")
    p.add_argument("--stages", type=_widths, required=True, help='"5", "3,5" or "5..65:5"')
    p.add_argument("--steps", type=_count, required=True, help="env steps per stage")
    p.add_argument("--len", type=_sampled, default=10)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
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
    p.add_argument("--plan-json", required=True, help="plan --format json document with raw_actions and goal")
    p.add_argument("--geometry", required=True, help="geometry config file")
    p.add_argument(
        "--frame", choices=("local", "world"), default="local", help="output frame"
    )
    p.add_argument("--output-dir", default=".", help="directory for generated files")
    p.add_argument("--format", choices=("csv", "json"), help="write only this format")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    _echo_config(args)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:  # a size too large for this machine
        _log(f"error: {str(exc) or 'out of memory'}")
        return 1
    except KeyboardInterrupt:  # Ctrl-C; 130 is the shell's code for it
        _log("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
