"""A call census: every function in the package is entered by some command.

The test runs the CLI's subcommands in process under ``sys.setprofile`` and
lists every function ``ast`` finds in the package's modules.  A function that
no command entered fails the test by name, unless ``NEVER_ENTERED`` lists it
with its reason.  Code objects are matched to definitions by name and first
line, the first decorator's line for a decorated function, so no
``co_qualname`` (Python 3.11) is needed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import croprow
from croprow import cli

PACKAGE = Path(croprow.__file__).resolve().parent
GEOMETRY = "row_spacing_m = 0.76\ncorridor_length_m = 20\norigin_e = 100\norigin_n = 50\nheading_rad = 0.3\n"

# module.qualname: why no command enters it
NEVER_ENTERED = {
    "world.step": "perfbench traces it as planners.step (ROADMAP item 1 PR B, then item 7)",
    "waypoints.compile_route": "perfbench's planning workloads compile through it (ROADMAP item 1 PR B, then item 7)",
    "waypoints.WaypointPath.__len__": "perfbench counts route points with len() (ROADMAP item 1 PR B, then item 7)",
    "dqn.evaluate": "perfbench's train-5 runs it; croprow train does not yet (ROADMAP item 3)",
    "world.oracle_shortest": "perfbench and the tests check plans against it; no command yet (ROADMAP item 5)",
    "world._distance_field": "oracle_shortest's memoized corridor ends (ROADMAP item 5)",
}


def functions(node, prefix: str):
    """(name, first line, qualified name) of every function under an ast node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child.name, min([child.lineno, *(d.lineno for d in child.decorator_list)]), prefix + child.name
        scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from functions(child, f"{prefix}{child.name}." if scoped else prefix)


def definitions() -> dict[tuple[str, str, int], str]:
    """(file, name, first line) of every function in the package, to its module.qualname."""
    return {
        (str(path), name, first): qualname
        for path in sorted(PACKAGE.glob("*.py"))
        for name, first, qualname in functions(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    }


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv)), out.getvalue()


def commands(tmp: Path) -> None:
    """plan, simulate and export at 4 and 65 rows; bench at one width and as a sweep; a
    two-stage train; plan and bench with that model; one usage error."""
    geometry, plan_json = tmp / "geom.cfg", tmp / "plan.json"
    geometry.write_text(GEOMETRY)
    for rows, goal in ((4, "2,4"), (65, "40,4")):
        where = ["--rows", str(rows), "--len", "10", "--start", "0.5,3,0", "--goal", goal]
        for planner in ("heuristic", "astar"):
            assert run("plan", "--planner", planner, *where)[0] == 0
            code, doc = run("plan", "--planner", planner, *where, "--format", "json")
            assert code == 0
            plan_json.write_text(doc)
            actions = json.dumps(json.loads(doc)["raw_actions"])
            assert run("simulate", *where, "--actions", actions)[0] == 0
            assert run("simulate", *where, "--actions", actions, "--format", "json")[0] == 0
            for frame in ("local", "world"):
                export = ["--plan-json", str(plan_json), "--geometry", str(geometry), "--frame", frame]
                assert run("export", *export, "--output-dir", str(tmp / frame))[0] == 0
    bench = ["bench", "--planners", "heuristic,astar", "--len", "10", "--n", "20"]
    assert run(*bench, "--rows", "4", "--output-dir", str(tmp / "bench"))[0] == 0
    assert run(*bench, "--rows", "4,6", "--output-dir", str(tmp / "sweep"))[0] == 0
    model = str(tmp / "model.npz")
    assert run("train", "--stages", "3,4", "--steps", "1500", "--len", "4", "--seed", "5", "--out", model)[0] == 0
    small = ["--model", model, "--rows", "4", "--len", "4"]
    assert run("plan", "--planner", "dqn", *small, "--start", "0.5,1,0", "--goal", "2,2")[0] in (0, 2)
    dqn_bench = ["bench", "--planners", "heuristic,astar,dqn", *small, "--n", "20"]
    assert run(*dqn_bench, "--output-dir", str(tmp / "dqn"))[0] == 0
    assert run("plan")[0] == 1  # a usage error, which enters the parser's error


def test_every_function_is_entered(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    cli.build_parser.cache_clear()  # built once per process, maybe by an earlier test
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        commands(tmp_path)
    finally:
        sys.setprofile(previous)
    seen = {(str(Path(c.co_filename).resolve()), c.co_name, c.co_firstlineno) for c in entered}
    defined = definitions()
    never = {name for key, name in defined.items() if key not in seen}
    assert sorted(never - NEVER_ENTERED.keys()) == [], "never entered and not on NEVER_ENTERED"
    stale = sorted(NEVER_ENTERED.keys() - never)
    assert stale == [], "on NEVER_ENTERED but entered, or not defined"
    assert len(defined) > 100  # the walk found the package
