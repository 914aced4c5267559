"""Argv fuzz: every subcommand keeps the exit-code contract on any input.

Each example runs main() in process inside one working directory that holds
a valid plan document, geometry files and checkpoints.  The contract: exit 0,
1 or 2, never an uncaught exception, never a traceback on stderr, and the
same exit code from simulate in text and JSON mode.  Fields and counts stay
small so the whole module runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from croprow.cli import MAX_WIDTHS, main
from croprow.dqn import QNetwork, TrainConfig, action_space_size, save_checkpoint

GEOMETRIES = {
    "geometry.txt": "row_spacing_m = 0.76\ncorridor_length_m = 20\n",
    "nan_origin.txt": "row_spacing_m = 0.76\ncorridor_length_m = 20\norigin_e = nan\n",
    "inf_headland.txt": "row_spacing_m = 0.76\ncorridor_length_m = 20\nheadland_offset_m = inf\n",
    "huge_spacing.txt": "row_spacing_m = 1e308\ncorridor_length_m = 20\n",
}
PATHS = ("plan.json", "geometry.txt", "bad_geometry.txt", "model.npz", "bad_model.npz", "missing")
NUMBERS = st.sampled_from(("-1", "0", "0.5", "1", "1.5", "2", "2.5", "inf", "-inf", "nan", "1e400", "x", ""))


def pick(valid, bad):
    """(valid, bad) value strategies from two lists of literals."""
    return st.sampled_from(valid), st.sampled_from(bad)


@st.composite
def too_many_widths(draw):
    """A range of more widths than one run takes, its ends up to 10**30."""
    first = draw(st.integers(2, 10**30 - MAX_WIDTHS))
    last = draw(st.integers(first + MAX_WIDTHS, 10**30))
    return f"{first}..{last}:{draw(st.integers(1, (last - first) // MAX_WIDTHS))}"


ROWS = pick(("3", "4", "6"), ("-1", "1", "x"))
# bench's widths: one, or a list or range to sweep
WIDTHS = (
    st.sampled_from(("3", "4", "6", "3,5", "2..4:1", "2,4..6:2")),
    st.sampled_from(("-1", "1", "x", "", "3,2", "4,4", "2..4", "4..2:1", "1,3")) | too_many_widths(),
)
STAGES = (
    st.sampled_from(("2", "3", "2,3", "2..3:1")),
    st.sampled_from(("0", "x", "3,2", "3..2:1", "2..3")) | too_many_widths(),
)
LENS = pick(("3", "5"), ("0", "1", "x"))
COUNTS = pick(("1", "2"), ("-3", "0", "x"))
SEEDS = pick(("0", "7"), ("-1", "x"))
OUT_DIRS = pick(("out",), ("plan.json/out",))
START = (
    st.tuples(st.sampled_from((0.5, 1.5)), st.integers(-1, 3), st.integers(0, 1)).map(
        lambda s: f"{s[0]},{s[1]},{s[2]}"
    ),
    st.lists(NUMBERS, min_size=2, max_size=4).map(",".join),
)
GOAL = (
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda g: f"{g[0]},{g[1]}"),
    st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
)
ACTIONS = (
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4)), max_size=12).map(
        lambda pairs: json.dumps([list(p) for p in pairs])
    ),
    st.one_of(
        st.lists(
            st.lists(
                st.one_of(st.integers(-1, 99), st.booleans(), st.none(), st.floats()),
                min_size=1,
                max_size=3,
            ),
            max_size=4,
        ).map(json.dumps),
        st.text(max_size=12),
    ),
)
# How a flag appears: REQUIRED ones are dropped only by a broken draw, ALWAYS
# ones never (bench's --n and --rows, so that no example falls back to the
# 1,000-instance, 65-row default), OPTIONAL ones in every other draw.
REQUIRED, ALWAYS, OPTIONAL = "required", "always", "optional"
WHERE = {
    "--rows": (*ROWS, REQUIRED),
    "--len": (*LENS, REQUIRED),
    "--start": (*START, REQUIRED),
    "--goal": (*GOAL, REQUIRED),
}

# flag -> (valid values, bad values, presence)
OPTIONS = {
    "plan": {
        "--planner": (*pick(("heuristic", "astar", "dqn"), ("x",)), REQUIRED),
        **WHERE,
        "--model": (*pick(("model.npz",), PATHS), OPTIONAL),
        "--format": (*pick(("json",), ("csv",)), OPTIONAL),
    },
    "simulate": {**WHERE, "--actions": (*ACTIONS, REQUIRED)},
    "bench": {
        "--planners": (*pick(("heuristic", "astar", "heuristic,astar", "dqn"), ("", "x")), REQUIRED),
        "--n": (*COUNTS, ALWAYS),
        "--rows": (*WIDTHS, ALWAYS),
        "--len": (*LENS, OPTIONAL),
        "--model": (*pick(("model.npz",), PATHS), OPTIONAL),
        "--repetitions": (*COUNTS, OPTIONAL),
        "--seed": (*SEEDS, OPTIONAL),
        "--output-dir": (*OUT_DIRS, OPTIONAL),
    },
    "train": {
        "--stages": (*STAGES, REQUIRED),
        "--steps": (*pick(("1", "20"), ("-4", "0", "x")), REQUIRED),
        "--len": (*LENS, OPTIONAL),
        "--out": (*pick(("trained.npz",), ("missing/trained.npz",)), REQUIRED),
        "--seed": (*SEEDS, OPTIONAL),
    },
    "export": {
        "--plan-json": (*pick(("plan.json",), PATHS), REQUIRED),
        "--geometry": (*pick(("geometry.txt",), PATHS), REQUIRED),
        "--frame": (*pick(("local", "world"), ("x",)), OPTIONAL),
        "--output-dir": (*OUT_DIRS, OPTIONAL),
        "--format": (*pick(("csv", "json"), ("x",)), OPTIONAL),
    },
}
# options no longer offered, plus one that never existed
STRAY = {
    "plan": (["--seed", "1"], ["--output-dir", "out"]),
    "simulate": (["--seed", "1"], ["--output-dir", "out"], ["--format", "csv"]),
    "bench": (["--format", "json"], ["--scaling", "2,3"]),
    "train": (["--output-dir", "out"], ["--format", "json"]),
    "export": (["--seed", "1"],),
}


@st.composite
def argv_for(draw, command: str):
    """A well-formed request, or in one draw of four a broken one that may
    drop a required flag, give any option a bad value, or add a stray one."""
    broken = draw(st.integers(0, 3)) == 0
    argv = [command]
    for flag, (valid, bad, presence) in OPTIONS[command].items():
        if presence == REQUIRED:
            present = not (broken and draw(st.integers(0, 4)) == 0)
        else:
            present = presence == ALWAYS or draw(st.booleans())
        if present:
            value = draw(st.one_of(valid, bad) if broken else valid)
            argv.append(f"{flag}={value}")  # "=" keeps "-1" a value
    if broken and draw(st.booleans()):
        argv += draw(st.sampled_from([*STRAY[command], ["--frobnicate"]]))
    return argv


ANY_ARGV = st.one_of(*(argv_for(command) for command in OPTIONS))

SIM = ["simulate", "--rows", "4", "--len", "5", "--start", "1.5,2,0", "--goal", "2,4"]
PLAN = ["plan", "--planner", "astar", *SIM[1:]]


@contextlib.contextmanager
def _inside(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_checked(argv: list[str]) -> tuple[int, str]:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    with _inside(path):
        code, out, _ = run([*PLAN, "--format", "json"])
    assert code == 0
    (path / "plan.json").write_text(out)
    for name, text in GEOMETRIES.items():
        (path / name).write_text(text)
    (path / "bad_geometry.txt").write_text("row_gap = 3\n")
    cfg = TrainConfig(hidden_sizes=(8,))
    net = QNetwork(action_space_size(6), (8,))
    save_checkpoint(path / "model.npz", net, cfg, stage_rows=6, seed=0)
    net.weights[1] = net.weights[1][:4]  # meta still says 8 hidden units
    save_checkpoint(path / "bad_model.npz", net, cfg, stage_rows=6, seed=0)
    return path


@given(argv=ANY_ARGV)
@settings(max_examples=150, deadline=None)
@example(argv=[*PLAN[:7], "--start=inf,2,0", *PLAN[9:]])
@example(argv=[*PLAN[:7], "--start=nan,2,0", *PLAN[9:]])
@example(argv=[*PLAN, "--planner=dqn", "--model=bad_model.npz"])
@example(argv=["bench", "--planners", "heuristic", "--rows", "10,20", "--n", "0"])
@example(argv=["bench", "--planners", "heuristic", "--n", "0"])
@example(argv=["bench", "--planners", "heuristic", "--n=-3"])
@example(argv=["train", "--stages", "3", "--steps", "0", "--out", "trained.npz"])
@example(argv=["train", "--stages", "3", "--steps=-4", "--out", "trained.npz"])
@example(argv=[*PLAN, "--seed", "1"])
@example(argv=["export", "--plan-json", "plan.json", "--geometry", "geometry.txt", "--seed", "1"])
def test_every_subcommand_keeps_the_exit_code_contract(workdir, argv):
    with _inside(workdir):
        run_checked(argv)


@given(argv=argv_for("simulate"))
@settings(max_examples=100, deadline=None)
@example(argv=[*SIM[:5], "--start=inf,2,0", *SIM[7:], "--actions", "[]"])
@example(argv=[*SIM[:5], "--start=nan,2,0", *SIM[7:], "--actions", "[]"])
@example(argv=[*SIM, "--actions", "[[0,99]]"])
@example(argv=[*SIM, "--actions", "[[0,true]]"])
def test_simulate_text_and_json_agree(workdir, argv):
    with _inside(workdir):
        text, _ = run_checked(argv)
        as_json, _ = run_checked([*argv, "--format", "json"])
    assert text == as_json


SMALL = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([2.5, float("inf"), float("nan"), "3", "x", None, True, [], {}]),
)
# the README example plan, which switches from corridor 0.5 to 5.5
README_PLAN = {"rows": 10, "len": 10, "start": [0.5, 3, 0], "goal": [6, 4],
               "raw_actions": [[0, 0]] * 7 + [[1, 7]] + [[1, 0]] * 6}
PLAN_DOCS = st.one_of(
    st.fixed_dictionaries(
        {
            "rows": SMALL,
            "len": SMALL,
            "start": st.one_of(SMALL, st.lists(SMALL, max_size=4)),
            "goal": st.one_of(SMALL, st.lists(SMALL, max_size=3)),
            "raw_actions": st.one_of(SMALL, st.lists(st.lists(SMALL, max_size=3), max_size=5)),
        },
    ),
    SMALL,
    st.lists(SMALL, max_size=3),
)


def _reject_constant(name):
    raise AssertionError(f"export wrote {name} into its GeoJSON")


@given(doc=PLAN_DOCS, geometry=st.sampled_from(sorted(GEOMETRIES)), frame=st.sampled_from(("local", "world")))
@settings(max_examples=100, deadline=None)
@example(doc={"rows": 4, "len": 5, "start": [1.5, 2, 0], "goal": [2], "raw_actions": []}, geometry="geometry.txt", frame="local")
@example(doc={"rows": float("inf"), "len": 5, "start": [1.5, 2, 0], "goal": [2, 4], "raw_actions": []}, geometry="geometry.txt", frame="local")
@example(doc=["rows", "len", "start", "goal", "raw_actions"], geometry="geometry.txt", frame="local")
@example(doc={**README_PLAN, "raw_actions": [[0.9, 0.2], [True, 7.6], [1, 0]]}, geometry="geometry.txt", frame="local")
@example(doc={**README_PLAN, "raw_actions": [[0, 0], [1, 7], [1, 0]]}, geometry="geometry.txt", frame="local")
@example(doc=README_PLAN, geometry="geometry.txt", frame="world")
@example(doc={**README_PLAN, "start": [0.5, 3.9, 0.4]}, geometry="geometry.txt", frame="local")
@example(doc={**README_PLAN, "rows": 10.7}, geometry="geometry.txt", frame="local")
@example(doc=README_PLAN, geometry="nan_origin.txt", frame="world")
@example(doc=README_PLAN, geometry="inf_headland.txt", frame="local")
@example(doc=README_PLAN, geometry="huge_spacing.txt", frame="local")
def test_export_survives_any_plan_document(workdir, doc, geometry, frame):
    """Any plan document and geometry: the exit-code contract holds, and an
    export that succeeds wrote GeoJSON with finite coordinates only."""
    with _inside(workdir):
        with open("fuzzed_plan.json", "w") as fh:
            json.dump(doc, fh)
        shutil.rmtree("out", ignore_errors=True)
        code, _ = run_checked(
            ["export", "--plan-json", "fuzzed_plan.json", "--geometry", geometry,
             "--frame", frame, "--output-dir", "out"]
        )
        if code == 0:
            with open("out/waypoints.geojson") as fh:
                json.load(fh, parse_constant=_reject_constant)
