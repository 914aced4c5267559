"""End-to-end command-line tests driven through main() in process."""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from croprow import cli
from croprow.bench import generate_instances
from croprow.cli import _widths, main
from croprow.dqn import QNetwork, TrainConfig, load_checkpoint, save_checkpoint
from croprow.world import FieldSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEOMETRY = "row_spacing_m = 0.76\ncorridor_length_m = 20\n"
# the README plan: up to the top headland, a switch to corridor 5.5, down to the goal
README_PLAN = {"rows": 10, "len": 10, "start": [0.5, 3, 0], "goal": [6, 4],
               "raw_actions": [[0, 0]] * 7 + [[1, 7]] + [[1, 0]] * 6}
WHERE = ["--rows", "4", "--len", "5", "--start", "1.5,2,0", "--goal", "2,4"]
PINNED_EXPORT_DIGESTS = {
    "plan": "4fe05e8c390b2ce412e21facc2b34a9a0ecd4d53bf3513dea61e62c2f282c4ef",
    "local waypoints.csv": "845fd367df9ac6ff8cd5eecab1434cf3858e6fa2c3e6aab1562e56425ba0e18e",
    "local waypoints.geojson": "70a57266a4660ddbdae54721a8971f62fc2fa8282759013a34dfc86fa51d08e6",
    "world waypoints.csv": "abcd3c19e7e95c8fc352b2d8e41c53990deb9d664a368768cebee5b9a3ce5703",
    "world waypoints.geojson": "f6376778a1cef1c264fae967a305ce0f53de6202c070e5401c83e626e92bd24c",
}


class TestPlan:
    def test_worked_example(self, capsys):
        code, out, err = run_cli(
            capsys,
            "plan", "--planner", "heuristic", "--rows", "4", "--len", "5",
            "--start", "1.5,2,0", "--goal", "2,4",
        )
        assert code == 0
        assert "macro [[0,0],[1,0]]" in out
        assert "path length 4" in out
        assert "config:" in err and "config:" not in out

    def test_astar_same_length(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "astar", "--rows", "4", "--len", "5",
            "--start", "1.5,2,0", "--goal", "2,4",
        )
        assert code == 0
        assert "path length 4" in out
        assert "nodes expanded 4" in out

    def test_astar_json_counts_nodes(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--planner", "astar", *WHERE, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["nodes_expanded"] == 4

    def test_terminal_start_empty_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "heuristic", "--rows", "4", "--len", "5",
            "--start", "2.5,4,0", "--goal", "2,4",
        )
        assert code == 0
        assert "macro []" in out
        assert "path length 0" in out

    def test_invalid_state_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "plan", "--planner", "heuristic", "--rows", "4", "--len", "5",
            "--start", "9.5,2,0", "--goal", "2,4",
        )
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "plan", "--planner", "heuristic", "--rows", "4", "--len", "5",
            "--start", "1.5,2,0", "--goal", "2,4", "--frobnicate",
        )
        assert code == 1

    def test_dqn_without_model_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "plan", "--planner", "dqn", "--rows", "4", "--len", "5",
            "--start", "1.5,2,0", "--goal", "2,4",
        )
        assert code == 1
        assert "--model" in err

    def test_json_output_is_pure(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "heuristic", "--rows", "4", "--len", "5",
            "--start", "1.5,2,0", "--goal", "2,4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["macro_actions"] == [[0, 0], [1, 0]]
        assert doc["path_length"] == 4
        assert doc["success"] is True
        assert doc["planning_time_ns"] >= 1
        assert doc["nodes_expanded"] == 0  # the heuristic searches nothing

    def test_calls_the_module_global_planner(self, capsys, monkeypatch):
        calls = []
        plan = cli.plan_astar
        monkeypatch.setattr(cli, "plan_astar", lambda request: calls.append(1) or plan(request))
        code, _, _ = run_cli(capsys, "plan", "--planner", "astar", *WHERE)
        assert code == 0
        assert len(calls) == 1


class TestExport:
    def make_plan_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "heuristic", "--rows", "10", "--len", "10",
            "--start", "0.5,3,0", "--goal", "6,4", "--format", "json",
        )
        assert code == 0
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(out)
        return plan_path

    def test_flow_writes_equal_outputs(self, capsys, tmp_path):
        plan_path = self.make_plan_json(capsys, tmp_path)
        geometry = tmp_path / "geom.cfg"
        geometry.write_text(GEOMETRY)
        code, out, _ = run_cli(
            capsys,
            "export", "--plan-json", str(plan_path), "--geometry", str(geometry),
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert str(tmp_path / "waypoints.csv") in out
        with open(tmp_path / "waypoints.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "waypoints.geojson") as fh:
            geo = json.load(fh)
        coords = geo["geometry"]["coordinates"]
        assert len(rows) == len(coords)
        for row, (x, y) in zip(rows, coords):
            assert float(row["x_m"]) == pytest.approx(x, abs=1e-9)
            assert float(row["y_m"]) == pytest.approx(y, abs=1e-9)
        assert geo["properties"]["phase"][0] in ("exit", "approach", "switch")

    def test_single_format_and_world_frame(self, capsys, tmp_path):
        plan_path = self.make_plan_json(capsys, tmp_path)
        geometry = tmp_path / "geom.cfg"
        geometry.write_text(GEOMETRY + "origin_e = 100\norigin_n = 50\n")
        code, out, _ = run_cli(
            capsys,
            "export", "--plan-json", str(plan_path), "--geometry", str(geometry),
            "--output-dir", str(tmp_path), "--format", "csv", "--frame", "world",
        )
        assert code == 0
        assert not (tmp_path / "waypoints.geojson").exists()
        with open(tmp_path / "waypoints.csv") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["x_m"]) > 99.0

    def test_bad_geometry_key_exits_1(self, capsys, tmp_path):
        plan_path = self.make_plan_json(capsys, tmp_path)
        geometry = tmp_path / "geom.cfg"
        geometry.write_text(GEOMETRY + "row_gap = 3\n")
        code, _, err = run_cli(
            capsys,
            "export", "--plan-json", str(plan_path), "--geometry", str(geometry),
            "--output-dir", str(tmp_path),
        )
        assert code == 1
        assert "row_gap" in err

    def test_three_phase_route_bytes_pinned(self, capsys, tmp_path):
        # the plan document and the four export files of one seeded 65-row
        # route that exits, switches and enters, pinned byte for byte
        inst = generate_instances(FieldSpec(65, 10), 1, 5)[0]
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "astar", "--rows", "65", "--len", "10",
            "--start", ",".join(map(str, inst.start)), "--goal", ",".join(map(str, inst.goal)),
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["macro_actions"] == [[0, 0], [1, 53], [1, 0]]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(out)
        timeless = "".join(
            line for line in out.splitlines(keepends=True) if '"planning_time_ns"' not in line
        )
        digests = {"plan": hashlib.sha256(timeless.encode()).hexdigest()}
        geometry = tmp_path / "geom.cfg"
        geometry.write_text(GEOMETRY + "origin_e = 100\norigin_n = 50\nheading_rad = 0.3\n")
        for frame in ("local", "world"):
            out_dir = tmp_path / frame
            code, _, _ = run_cli(
                capsys,
                "export", "--plan-json", str(plan_path), "--geometry", str(geometry),
                "--frame", frame, "--output-dir", str(out_dir),
            )
            assert code == 0
            for name in ("waypoints.csv", "waypoints.geojson"):
                digests[f"{frame} {name}"] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert digests == PINNED_EXPORT_DIGESTS

    @pytest.mark.parametrize(
        "geometry, frame, named",
        [
            (GEOMETRY + "origin_e = nan\n", "world", "origin_e"),
            (GEOMETRY + "headland_offset_m = inf\n", "local", "headland_offset_m"),
            (GEOMETRY + "headland_offset_m = nan\n", "local", "headland_offset_m"),
            ("row_spacing_m = 1e400\ncorridor_length_m = 20\n", "local", "row_spacing_m"),
            (GEOMETRY + "heading_rad = inf\n", "world", "heading_rad"),
            (GEOMETRY + "heading_rad = inf\n", "local", "heading_rad"),
            # finite per point until the route switches past corridor 1.5
            ("row_spacing_m = 1e308\ncorridor_length_m = 20\n", "local", "waypoint coordinates"),
        ],
        ids=[
            "nan-origin-world-frame", "inf-headland-offset", "nan-headland-offset",
            "overflowing-row-spacing", "inf-heading-world-frame", "inf-heading-local-frame",
            "huge-row-spacing",
        ],
    )
    def test_non_finite_coordinates_exit_1_writing_nothing(
        self, capsys, tmp_path, geometry, frame, named
    ):
        plan_path = self.make_plan_json(capsys, tmp_path)
        geometry_path = tmp_path / "geom.cfg"
        geometry_path.write_text(geometry)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            "export", "--plan-json", str(plan_path), "--geometry", str(geometry_path),
            "--output-dir", str(out_dir), "--frame", frame,
        )
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {named}")
        assert "finite" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"raw_actions": [[0.9, 0.2], [True, 7.6], [1, 0]]}, "action 0"),
            ({"raw_actions": [[0, 0], [True, 7], [1, 0]]}, "action 1"),
            ({"raw_actions": {"0": [0, 0]}}, "raw_actions must be a JSON list"),
            ({"start": [0.5, 3.9, 0.4]}, "must be integers"),
            ({"start": [0.5, 3, True]}, "must be integers"),
            ({"start": [0.5, 3]}, "start must be [x,y,orientation]"),
            ({"start": ["0.5", 3, 0]}, "start x must be a finite number"),
            ({"start": [float("nan"), 3, 0]}, "start x must be a finite number"),
            ({"start": [10**400, 3, 0]}, "start x must be a finite number"),
            ({"rows": 10.7}, "must be integers"),
            ({"len": "10"}, "must be integers"),
            ({"goal": [6, 4.0]}, "must be integers"),
            ({"goal": [6]}, "goal must be [row,y]"),
            ({"rows": 5, "goal": [99, 0], "raw_actions": []}, "goal row out of range"),
            ({"goal": None}, "goal must be [row,y]"),
            # a DQN-style plan that simulate replays to the goal in 4 units: up
            # one cell, then backward three; its macros [[1,0],[1,1]] would run
            # to the bottom headland first, a 6-unit route
            ({"rows": 4, "len": 4, "start": [2.5, 1, 0], "goal": [3, 3],
              "raw_actions": [[1, 0], [1, 1], [1, 1], [1, 1]]}, "raw_actions are not what their macros replay to"),
        ],
        ids=[
            "float-and-bool-macros", "bool-macro", "macro-object", "fractional-start",
            "bool-orientation", "short-start", "string-x", "nan-x", "huge-int-x",
            "fractional-rows", "string-len", "float-goal", "short-goal", "empty-route-goal-row",
            "null-goal", "turn-inside-a-corridor",
        ],
    )
    def test_malformed_plan_exits_1_writing_nothing(self, capsys, tmp_path, change, message):
        # the README plan with its values replaced, most by ones int()/float() would coerce
        self.assert_refused(capsys, tmp_path, {**README_PLAN, **change}, message)

    @pytest.mark.parametrize("key", ["goal", "raw_actions"])
    def test_plan_without_a_key_exits_1_naming_it(self, capsys, tmp_path, key):
        doc = {name: value for name, value in README_PLAN.items() if name != key}
        self.assert_refused(capsys, tmp_path, doc, f"plan JSON is missing {key!r}")

    @staticmethod
    def assert_refused(capsys, tmp_path, doc, message):
        """Export of ``doc`` exits 1 with one ``error:`` line holding
        ``message``, nothing on standard output and no output directory."""
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        geometry = tmp_path / "geom.cfg"
        geometry.write_text(GEOMETRY)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            "export", "--plan-json", str(plan_path), "--geometry", str(geometry),
            "--output-dir", str(out_dir),
        )
        assert code == 1
        [line] = [line for line in err.splitlines() if not line.startswith("config:")]
        assert line.startswith("error: ") and message in line
        assert out == ""
        assert not out_dir.exists()


class TestBench:
    def test_small_run_and_determinism(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            code, out, _ = run_cli(
                capsys,
                "bench", "--planners", "heuristic,astar", "--n", "20",
                "--rows", "6", "--len", "6", "--seed", "7",
                "--output-dir", str(out_dir),
            )
            assert code == 0
            assert "heuristic" in out and "astar" in out
            assert "100.00%" in out
            assert (out_dir / "benchmark.csv").exists()
            assert (out_dir / "benchmark.json").exists()

        def stripped(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            return [row[:3] + row[4:] for row in rows]  # drop timing column

        assert stripped(dirs[0] / "benchmark.csv") == stripped(dirs[1] / "benchmark.csv")

    def test_scaling_table(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "bench", "--planners", "heuristic", "--rows", "4,8", "--n", "10",
            "--len", "5", "--seed", "3", "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert "heuristic scaling:" in out
        assert (tmp_path / "scaling.json").exists()
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert [entry["num_rows"] for entry in doc["heuristic"]] == [4, 8]
        assert [list(entry) for entry in doc["heuristic"]] == [
            ["num_rows", "instances", "mean_time_ns", "success_rate"]
        ] * 2

    @pytest.mark.parametrize(
        "rows, written, absent",
        [("4,6", ["scaling.json"], "benchmark.csv"), ("4", ["benchmark.csv", "benchmark.json"], "scaling.json")],
        ids=["list", "one"],
    )
    def test_one_width_benchmarks_a_list_sweeps(self, capsys, tmp_path, rows, written, absent):
        code, _, err = run_cli(
            capsys, "bench", "--planners", "heuristic", "--rows", rows, "--n", "2", "--len", "5",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert f" rows={rows} " in err.splitlines()[0]  # one config token, the widths that run
        assert sorted(p.name for p in tmp_path.iterdir()) == written
        assert not (tmp_path / absent).exists()

    @pytest.mark.parametrize("sizes", ["4,4", "4,8,8", "8,4"])
    def test_scaling_sizes_not_strictly_ascending_exit_1_making_nothing(self, capsys, tmp_path, sizes):
        # a repeated size would be swept, printed and written twice
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            "bench", "--planners", "heuristic", "--rows", sizes, "--n", "2",
            "--len", "5", "--output-dir", str(out_dir),
        )
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: argument --rows: widths must be strictly ascending, got {sizes!r}"
        ]
        assert not out_dir.exists()

    def test_scaling_honours_repetitions(self, capsys, tmp_path, monkeypatch):
        calls = []
        plan = cli.plan_heuristic
        monkeypatch.setattr(cli, "plan_heuristic", lambda request: calls.append(1) or plan(request))
        code, _, _ = run_cli(
            capsys,
            "bench", "--planners", "heuristic", "--rows", "4,6", "--n", "3",
            "--repetitions", "5", "--len", "5", "--output-dir", str(tmp_path),
        )
        assert code == 0
        # per size: 3 instances x (1 warm-up + 5 timed calls)
        assert len(calls) == 2 * 3 * (1 + 5)

    @pytest.mark.parametrize("planners", ["", ","])
    def test_no_planner_exits_1(self, capsys, tmp_path, planners):
        code, _, err = run_cli(
            capsys, "bench", "--planners", planners, "--n", "2", "--output-dir", str(tmp_path)
        )
        assert code == 1
        assert "no planner" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form", [["--rows", "6"], ["--rows", "4,6"]], ids=["rows", "scaling"])
    def test_unusable_output_dir_exits_1_before_planning(self, capsys, tmp_path, monkeypatch, form):
        calls = []
        plan = cli.plan_heuristic
        monkeypatch.setattr(cli, "plan_heuristic", lambda request: calls.append(1) or plan(request))
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(
            capsys,
            "bench", "--planners", "heuristic,astar", "--n", "3", *form, "--len", "5",
            "--output-dir", str(taken),
        )
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: [Errno 17] File exists: '{taken}'"
        ]
        assert calls == []

    @pytest.mark.parametrize(
        "planners, form",
        [("astar,astar", ["--rows", "6"]), ("heuristic,astar,heuristic", ["--rows", "4,6"])],
        ids=["rows", "scaling"],
    )
    def test_repeated_planner_exits_1_making_nothing(self, capsys, tmp_path, planners, form):
        # a repeat would add a second set of CSV rows, or overwrite its first sweep
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            "bench", "--planners", planners, "--n", "2", *form, "--len", "5",
            "--output-dir", str(out_dir),
        )
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: planner '{planners.split(',')[0]}' named twice"
        ]
        assert not out_dir.exists()

    def test_unknown_planner_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "bench", "--planners", "dijkstra", "--n", "5",
            "--output-dir", str(tmp_path),
        )
        assert code == 1
        assert "unknown planner 'dijkstra'" in err


class TestTrain:
    def test_checkpoint_round_trip_and_log(self, capsys, tmp_path):
        out_path = tmp_path / "m.npz"
        code, out, _ = run_cli(
            capsys,
            "train", "--stages", "3", "--steps", "250", "--len", "4",
            "--seed", "5", "--out", str(out_path),
        )
        assert code == 0
        assert str(out_path) in out
        net, meta = load_checkpoint(out_path)
        assert meta["stage_rows"] == 3
        log_path = tmp_path / "m.npz.log.csv"
        lines = log_path.read_text().splitlines()
        assert lines[0] == "stage_rows,episode,return,success"
        assert len(lines) > 1

        # identical seed, identical log
        rerun = tmp_path / "m2.npz"
        code, _, _ = run_cli(
            capsys,
            "train", "--stages", "3", "--steps", "250", "--len", "4",
            "--seed", "5", "--out", str(rerun),
        )
        assert code == 0
        assert (tmp_path / "m2.npz.log.csv").read_text() == log_path.read_text()

    @pytest.mark.parametrize("name", ["m.npz", "m"])
    def test_trained_model_usable_by_plan(self, capsys, tmp_path, name):
        code, printed, _ = run_cli(
            capsys,
            "train", "--stages", "3", "--steps", "250", "--len", "4",
            "--seed", "5", "--out", str(tmp_path / name),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "dqn", "--model", printed.strip(),
            "--rows", "3", "--len", "4", "--start", "0.5,1,0", "--goal", "1,3",
        )
        # an untrained policy may fail to reach the goal, but never crashes
        assert code in (0, 2)
        assert "macro" in out

    @pytest.mark.parametrize("out", ["missing/m", "."])
    def test_unwritable_out_exits_1_before_training(self, capsys, tmp_path, monkeypatch, out):
        def no_training(*args, **kwargs):
            raise AssertionError("run_curriculum called")

        monkeypatch.setattr(cli, "run_curriculum", no_training)
        code, _, err = run_cli(
            capsys,
            "train", "--stages", "3", "--steps", "10", "--len", "4",
            "--out", str(tmp_path / out),
        )
        assert code == 1
        assert "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_model_with_bad_shapes_exits_1(self, capsys, tmp_path):
        net = QNetwork(10, (8,))
        net.weights[1] = net.weights[1][:4]  # meta still says 8 hidden units
        path = tmp_path / "bad.npz"
        save_checkpoint(path, net, TrainConfig(hidden_sizes=(8,)), stage_rows=4, seed=0)
        code, _, err = run_cli(
            capsys, "plan", "--planner", "dqn", "--model", str(path), *WHERE
        )
        assert code == 1
        assert "layer 1" in err

    @staticmethod
    def save_with_meta(path, edit) -> None:
        """A 4-row checkpoint whose meta JSON is passed through edit."""
        save_checkpoint(path, QNetwork(10, (8,)), TrainConfig(hidden_sizes=(8,)), 4, 0)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["meta"] = np.array(json.dumps(edit(json.loads(str(arrays["meta"])))))
        np.savez(path, **arrays)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: list(meta.values()),
            lambda meta: {**meta, "hidden_sizes": 8},
            lambda meta: {**meta, "train_config": None},
            lambda meta: {"format_version": meta["format_version"]},
            lambda meta: {k: v for k, v in meta.items() if k != "train_config"},
        ],
        ids=["meta-is-a-list", "hidden-sizes-is-an-int", "train-config-is-null", "only-format-version",
             "no-train-config"],
    )
    def test_model_with_malformed_meta_exits_1(self, capsys, tmp_path, edit):
        path = tmp_path / "bad.npz"
        self.save_with_meta(path, edit)
        with pytest.raises(ValueError, match="malformed checkpoint meta"):
            load_checkpoint(path)
        code, _, err = run_cli(
            capsys, "plan", "--planner", "dqn", "--model", str(path), *WHERE[:4],
            "--start", "0.5,1,0", "--goal", "1,3",
        )
        assert code == 1
        assert "malformed checkpoint meta" in err
        assert "Traceback" not in err

    @staticmethod
    def save_with_arrays(path, edit) -> None:
        """A 4-row, three-layer float32 checkpoint whose arrays dict (W0..b2
        and meta) is passed through edit."""
        save_checkpoint(path, QNetwork(10, (8, 8)), TrainConfig(hidden_sizes=(8, 8)), 4, 0)
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **edit(arrays))

    @pytest.mark.parametrize(
        "layer, edit",
        [
            (0, lambda a: {**a, "W0": np.full(a["W0"].shape, "x")}),
            (2, lambda a: {**a, "b2": np.zeros(a["b2"].shape, "datetime64[s]")}),
            (1, lambda a: {**a, "W1": a["W1"].astype(np.int64)}),
            (0, lambda a: {**a, "b0": a["b0"].astype(bool)}),
            (2, lambda a: {**a, "W2": a["W2"].astype(np.complex128)}),
            (0, lambda a: {k: v if k == "meta" else v.astype(np.complex64) for k, v in a.items()}),
            (1, lambda a: {**a, "W1": a["W1"].astype(np.float16), "b1": a["b1"].astype(np.float16)}),
        ],
        ids=["W0-str", "b2-datetime64", "W1-int", "b0-bool", "W2-complex", "all-complex",
             "layer-1-float16"],
    )
    def test_model_with_bad_dtypes_exits_1(self, capsys, tmp_path, layer, edit):
        path = tmp_path / "bad.npz"
        self.save_with_arrays(path, edit)
        with pytest.raises(ValueError, match=f"layer {layer} .*one real floating dtype"):
            load_checkpoint(path)
        code, _, err = run_cli(
            capsys, "plan", "--planner", "dqn", "--model", str(path), *WHERE
        )
        assert code == 1
        assert f"checkpoint layer {layer}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["meta", "W0", "b1", "W2"])
    def test_model_missing_an_array_exits_1(self, capsys, tmp_path, name):
        path = tmp_path / "bad.npz"
        self.save_with_arrays(path, lambda a: {k: v for k, v in a.items() if k != name})
        with pytest.raises(ValueError, match=f"checkpoint has no {name} array"):
            load_checkpoint(path)
        code, _, err = run_cli(
            capsys, "plan", "--planner", "dqn", "--model", str(path), *WHERE
        )
        assert code == 1
        assert f"error: checkpoint has no {name} array" in err.splitlines()
        assert "Traceback" not in err

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_with_one_float_dtype_loads_and_plans(self, capsys, tmp_path, dtype):
        path = tmp_path / "m.npz"
        self.save_with_arrays(
            path, lambda a: {k: v if k == "meta" else v.astype(dtype) for k, v in a.items()}
        )
        net, _ = load_checkpoint(path)
        assert all(a.dtype == dtype for a in net.weights + net.biases)
        code, out, _ = run_cli(
            capsys, "plan", "--planner", "dqn", "--model", str(path), *WHERE
        )
        assert code in (0, 2)  # an untrained policy may miss the goal
        assert "macro" in out

    @staticmethod
    def write_unreadable_model(path, kind) -> None:
        """A file that is not a readable .npz archive."""
        if kind == "npy-array":
            with open(path, "wb") as f:
                np.save(f, np.zeros((3, 2)))
            return
        save_checkpoint(path, QNetwork(10, (8,)), TrainConfig(hidden_sizes=(8,)), 4, 0)
        raw = path.read_bytes()
        path.write_bytes({"empty": b"", "first-half": raw[: len(raw) // 2],
                          "first-10-bytes": raw[:10]}[kind])

    @pytest.mark.parametrize("subcommand", ["plan", "bench"])
    @pytest.mark.parametrize("kind", ["npy-array", "empty", "first-half", "first-10-bytes"])
    def test_unreadable_model_exits_1(self, capsys, tmp_path, kind, subcommand):
        path = tmp_path / "bad.npz"
        self.write_unreadable_model(path, kind)
        with pytest.raises(ValueError, match="npz archive"):
            load_checkpoint(path)
        where = (
            WHERE if subcommand == "plan"
            else ["--n", "2", "--rows", "4", "--len", "5", "--output-dir", str(tmp_path)]
        )
        flag = "--planner" if subcommand == "plan" else "--planners"
        code, _, err = run_cli(capsys, subcommand, flag, "dqn", "--model", str(path), *where)
        assert code == 1
        assert "npz archive" in err
        assert "Traceback" not in err

    # settings older checkpoints also stored in train_config: the 9-setting
    # config held the batch size, warm-up, target-sync interval and Huber
    # delta; the 16-setting one also the exploration schedule, the clip norm
    # and Adam's moment settings
    NINE_SETTING_EXTRAS = {
        "batch_size": 64, "target_sync_interval": 1_000, "learning_starts": 1_000,
        "huber_delta": None,
    }
    SIXTEEN_SETTING_EXTRAS = {
        **NINE_SETTING_EXTRAS, "epsilon_start": 1.0, "epsilon_final": 0.05,
        "epsilon_decay_fraction": 0.5, "grad_clip_norm": 10.0, "adam_beta1": 0.9,
        "adam_beta2": 0.999, "adam_eps": 1e-8,
    }

    @pytest.mark.parametrize(
        "settings, extras", [(16, SIXTEEN_SETTING_EXTRAS), (9, NINE_SETTING_EXTRAS)],
        ids=["sixteen-settings", "nine-settings"],
    )
    def test_checkpoint_with_older_config_loads_and_plans(
        self, capsys, tmp_path, settings, extras
    ):
        path = tmp_path / "old.npz"
        self.save_with_meta(
            path, lambda meta: {**meta, "train_config": {**meta["train_config"], **extras}}
        )
        _, meta = load_checkpoint(path)
        assert len(meta["train_config"]) == settings
        assert meta["train_config"]["hidden_sizes"] == (8,)
        code, out, _ = run_cli(
            capsys, "plan", "--planner", "dqn", "--model", str(path), *WHERE[:4],
            "--start", "0.5,1,0", "--goal", "1,3",
        )
        assert code in (0, 2)  # an untrained policy may miss the goal
        assert "macro" in out

    def test_stage_parser(self):
        assert _widths("5") == [5]
        assert _widths("5..65:5") == list(range(5, 70, 5))
        assert len(_widths("5..65:5")) == 13
        with pytest.raises(argparse.ArgumentTypeError):
            _widths("5..65")
        with pytest.raises(argparse.ArgumentTypeError):
            _widths("65..5:5")

    def test_list_and_range_stages_write_the_same_bytes(self, capsys, tmp_path):
        outputs = []
        for stages in ("3,4", "3..4:1"):
            out_path = tmp_path / f"{stages.replace(':', '_')}.npz"
            code, _, err = run_cli(
                capsys, "train", "--stages", stages, "--steps", "150", "--len", "4",
                "--seed", "5", "--out", str(out_path),
            )
            assert code == 0
            assert " stages=3,4 " in err.splitlines()[0]  # the config echo shows the widths that run
            outputs.append([out_path.read_bytes(), Path(f"{out_path}.log.csv").read_bytes()])
        assert outputs[0] == outputs[1]


PINNED_SIMULATE_TEXT = """\
start:

# # # #
# # # #
# # # *
 ^
step 0: action [[0,0]] reward -0.2

# # # #
# # # #
#^# # *

step 1: action [[0,0]] reward -0.2

# # # #
#^# # #
# # # *

step 2: action [[0,0]] reward -0.2

#^# # #
# # # #
# # # *

step 3: action [[0,0]] reward -0.2
 ^
# # # #
# # # #
# # # *

step 4: action [[1,4]] reward -0.4
     v
# # # #
# # # #
# # # *

step 5: action [[1,0]] reward -0.2

# # #v#
# # # #
# # # *

step 6: action [[1,0]] reward -0.2

# # # #
# # #v#
# # # *

step 7: action [[1,0]] reward +24.8

# # # #
# # # #
# # #v*

verdict: success
distance: 9
reward: 23.2
steps: 8
"""


class TestSimulate:
    def test_optimal_sequence_succeeds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--rows", "4", "--len", "5", "--start", "1.5,2,0",
            "--goal", "2,4", "--actions", "[[0,0],[0,0],[0,0],[1,0]]",
        )
        assert code == 0
        assert "verdict: success" in out
        assert "distance: 4" in out
        assert "^" in out and "*" in out and "#" in out

    def test_text_output_pinned(self, capsys):
        # both headlands, a switch, and the robot beside the goal marker
        code, out, _ = run_cli(
            capsys,
            "simulate", "--rows", "4", "--len", "3", "--start", "0.5,-1,0", "--goal", "3,0",
            "--actions", "[[0,0],[0,0],[0,0],[0,0],[1,4],[1,0],[1,0],[1,0]]",
        )
        assert code == 0
        assert out == PINNED_SIMULATE_TEXT

    def test_illegal_action_fails_with_index(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--rows", "4", "--len", "5", "--start", "1.5,2,0",
            "--goal", "2,4", "--actions", "[[0,0],[0,3]]",
        )
        assert code == 2
        assert "verdict: failure" in out
        assert "index 1" in out

    def test_empty_sequence_at_goal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--rows", "4", "--len", "5", "--start", "2.5,4,0",
            "--goal", "2,4", "--actions", "[]",
        )
        assert code == 0
        assert "verdict: success" in out
        assert "distance: 0" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--rows", "4", "--len", "5", "--start", "1.5,2,0",
            "--goal", "2,4", "--actions", "[[0,0],[0,0],[0,0],[1,0]]",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["success"] is True
        assert doc["distance"] == 4

    def test_one_line_per_step_taken(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", *WHERE, "--actions", "[[0,0],[0,0],[0,0],[1,0],[1,0]]"
        )
        # the fifth action comes after the goal and is never taken
        steps = [line.split(":")[0] for line in out.splitlines() if line.startswith("step ")]
        assert code == 0
        assert steps == ["step 0", "step 1", "step 2", "step 3"]

    def test_out_of_range_move_fails_alike_in_text_and_json(self, capsys):
        for extra in ([], ["--format", "json"]):
            code, out, _ = run_cli(
                capsys, "simulate", *WHERE, "--actions", "[[0,99]]", *extra
            )
            assert code == 2
            assert "illegal action at index 0" in out

    def test_wide_field_replays_without_pictures(self, capsys):
        where = ["--rows", "5001", "--len", "10", "--start", "0.5,3,0", "--goal", "40,4"]
        code, out, _ = run_cli(capsys, "plan", "--planner", "heuristic", *where, "--format", "json")
        actions = json.dumps(json.loads(out)["raw_actions"])
        json_code, _, _ = run_cli(capsys, "simulate", *where, "--actions", actions, "--format", "json")
        code, out, err = run_cli(capsys, "simulate", *where, "--actions", actions)
        assert code == json_code == 0
        assert max(map(len, out.splitlines())) <= 10_000
        assert "field too large to draw: 5001 rows, length 10" in err.splitlines()
        steps = [line for line in out.splitlines() if line.startswith("step ")]
        assert len(steps) == len(json.loads(actions))
        assert out.splitlines()[-4:] == ["verdict: success", "distance: 48", "reward: 15.4", "steps: 10"]

    @pytest.mark.parametrize("rows, length", [(300_000_000, 1), (2, 100_000_000)], ids=["wide", "long"])
    def test_huge_field_text_replay_never_draws(self, capsys, monkeypatch, rows, length):
        # either picture would need gigabytes; the patch stands in for that
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_render", exhausted)
        where = ["--rows", str(rows), "--len", str(length), "--start", "0.5,0,0", "--goal", "1,0"]
        for extra in ([], ["--format", "json"]):
            code, out, err = run_cli(capsys, "simulate", *where, "--actions", "[]", *extra)
            assert code == 2
            assert "actions exhausted before reaching the goal" in out
            warned = f"field too large to draw: {rows} rows, length {length}" in err.splitlines()
            assert warned == (not extra)  # text mode only

    def test_boolean_action_component_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "simulate", *WHERE, "--actions", "[[0,true]]")
        assert code == 1
        assert "action 0" in err

    def test_bad_actions_json_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--rows", "4", "--len", "5", "--start", "1.5,2,0",
            "--goal", "2,4", "--actions", "nope",
        )
        assert code == 1
        assert "error:" in err


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("start", ["inf,2,0", "-inf,2,0", "nan,2,0", "9000000000000000,2,0"])
def test_non_finite_start_exits_1(capsys, command, start):
    # nor a whole x past 2**52 on a field that wide: every float there is whole
    extra = ["--planner", "astar"] if command == "plan" else ["--actions", "[]"]
    where = ["--rows", str(10**16), *WHERE[2:4], f"--start={start}", *WHERE[6:]]  # "=" lets "-inf" through
    code, _, err = run_cli(capsys, command, *extra, *where)
    assert code == 1
    x = float(start.split(",")[0])
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: not a corridor centerline: x={x}"
    ]


@pytest.mark.parametrize("rows", [2**52 + 2, 2**62])
def test_bench_past_exact_corridors_exits_1_making_no_directory(capsys, tmp_path, monkeypatch, rows):
    # a sampled corridor 0.5 + k past 2**52 rounds to a whole x, so such a table would be 0% by construction
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate_instances", lambda *a: pytest.fail("an instance was drawn"))
    argv = ["bench", "--planners", "heuristic,astar", "--rows", str(rows), "--n", "5", "--output-dir", "out"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: argument --rows: must be at most 2**52 + 1, past which corridors are inexact, got {rows}"
    ]
    assert list(tmp_path.iterdir()) == []


def test_bench_on_the_widest_field_of_exact_corridors_succeeds(capsys, tmp_path):
    out_dir = tmp_path / "out"
    argv = ["bench", "--planners", "heuristic", "--rows", str(2**52 + 1), "--n", "5", "--output-dir", str(out_dir)]
    assert run_cli(capsys, *argv)[0] == 0
    with open(out_dir / "benchmark.csv", newline="") as fh:
        assert [row["success"] for row in csv.DictReader(fh)] == ["true"] * 5


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--start", "0.5,3.0,0", "--start y: int expected, got '3.0'"),
        ("--start", "east,3,0", "--start x: float expected, got 'east'"),
        ("--goal", "2,4.0", "--goal y: int expected, got '4.0'"),
        ("--goal", "x,4", "--goal row: int expected, got 'x'"),
    ],
)
def test_unparsable_field_names_flag_and_field(capsys, command, flag, value, message):
    extra = ["--planner", "astar"] if command == "plan" else ["--actions", "[]"]
    where = ["--rows", "4", "--len", "5", "--start", "0.5,3,0", "--goal", "2,4"]
    where[where.index(flag) + 1] = value
    code, out, err = run_cli(capsys, command, *extra, *where)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--stages", "3.0", "--steps", "5", "--out", "m.npz"],
         "argument --stages: invalid int value: '3.0'"),
        (["train", "--stages", "5..x:5", "--steps", "5", "--out", "m.npz"],
         "argument --stages: invalid int value: 'x'"),
        (["bench", "--planners", "heuristic", "--rows", "10,6.5", "--n", "2"],
         "argument --rows: invalid int value: '6.5'"),
    ],
)
def test_unparsable_list_names_flag(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err and "invalid literal" not in err
    assert list(tmp_path.iterdir()) == []


class TestWidths:
    """``--rows`` and ``--stages``: comma-separated ints and A..B:S ranges, strictly ascending."""

    @pytest.mark.parametrize(
        "text, widths",
        [
            ("65", [65]),
            ("10,65,200", [10, 65, 200]),
            ("5..20:5", [5, 10, 15, 20]),
            ("5..12:5", [5, 10]),
            ("3..3:1", [3]),
            ("2,4..8:2,10", [2, 4, 6, 8, 10]),
        ],
        ids=["single", "list", "range", "range-short-of-its-end", "one-width-range", "mixed"],
    )
    def test_parses(self, text, widths):
        assert _widths(text) == widths

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "invalid int value: ''"),
            ("4,,6", "invalid int value: ''"),
            ("4,6,", "invalid int value: ''"),
            ("4,x", "invalid int value: 'x'"),
            ("5..20", "range needs a step, e.g. 5..65:5, got '5..20'"),
            ("4,5..20", "range needs a step, e.g. 5..65:5, got '5..20'"),
            ("20..5:5", "range must ascend by a step of at least 1, got '20..5:5'"),
            ("5..20:0", "range must ascend by a step of at least 1, got '5..20:0'"),
            ("5..20:-5", "range must ascend by a step of at least 1, got '5..20:-5'"),
            ("5..20:x", "invalid int value: 'x'"),
            ("6,4", "widths must be strictly ascending, got '6,4'"),
            ("4,4", "widths must be strictly ascending, got '4,4'"),
            ("2..6:2,5", "widths must be strictly ascending, got '2..6:2,5'"),
            ("2..10002:1", "more than the 10,000 widths one run takes, got '2..10002:1'"),
            ("2..5002:1,6000..10999:1", "more than the 10,000 widths one run takes, got '2..5002:1,6000..10999:1'"),
            (f"2..{10**20}:1", f"more than the 10,000 widths one run takes, got '2..{10**20}:1'"),
        ],
        ids=[
            "empty", "empty-part", "trailing-comma", "not-an-int", "range-without-step",
            "listed-range-without-step", "descending-range", "zero-step", "negative-step",
            "bad-step", "descending-list", "repeated", "overlapping-range",
            "one-range-over-the-cap", "parts-over-the-cap", "range-longer-than-sys-maxsize",
        ],
    )
    def test_rejects(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _widths(text)
        assert str(excinfo.value) == message

    @given(st.lists(st.integers(-10**6, 10**6), unique=True).filter(bool).map(sorted))
    def test_an_ascending_list_parses_back_to_itself(self, widths):
        assert _widths(",".join(map(str, widths))) == widths

    @given(st.integers(-50, 50), st.integers(0, 100), st.integers(1, 30))
    def test_a_range_is_python_s_inclusive_range(self, first, span, step):
        assert _widths(f"{first}..{first + span}:{step}") == list(range(first, first + span + 1, step))

    def test_the_cap_itself_parses(self):
        assert _widths(f"2..{cli.MAX_WIDTHS + 1}:1") == list(range(2, cli.MAX_WIDTHS + 2))

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--stages", "2..100000000000000000000:1", "--steps", "1", "--out", "m.npz"], "--stages"),
            (["bench", "--planners", "heuristic", "--rows", "3..2000000000:1", "--n", "1", "--output-dir", "out"],
             "--rows"),
        ],
        ids=["train-stages-past-sys-maxsize", "bench-rows-of-two-billion"],
    )
    def test_a_range_too_long_to_list_exits_1_under_a_memory_limit(self, tmp_path, argv, flag):
        # the limit turns a list the parser would build into a MemoryError at once
        limit = 512 * 2**20
        proc = _run_module(
            *argv, cwd=tmp_path, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        )
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert proc.returncode == 1, proc.stderr
        assert len(errors) == 1 and errors[0].startswith(f"error: argument {flag}: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--planner", "astar", *WHERE],
        ["bench", "--planners", "heuristic,astar", "--n", "2", "--output-dir", "out"],
    ],
    ids=["plan", "bench"],
)
def test_model_without_dqn_exits_1_reading_nothing(capsys, tmp_path, monkeypatch, argv):
    # the path names no file: reading it would fail with a different error
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--model", str(tmp_path / "missing.npz"))
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: --model is read only by planner 'dqn'"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "reason, line",
    [
        ("Unable to allocate 7.46 TiB", "error: Unable to allocate 7.46 TiB"),
        ("", "error: out of memory"),
    ],
)
def test_memory_exhaustion_exits_1_with_one_error_line(
    capsys, tmp_path, monkeypatch, reason, line
):
    # nothing real is allocated: the patched trainer raises as numpy would
    def exhausted(*args, **kwargs):
        raise MemoryError(reason)

    monkeypatch.setattr(cli, "run_curriculum", exhausted)
    code, out, err = run_cli(
        capsys,
        "train", "--stages", "1000000000", "--steps", "1", "--out", str(tmp_path / "m.npz"),
    )
    assert code == 1
    assert out == ""
    assert [e for e in err.splitlines() if "error" in e.lower()] == [line]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


SIMULATE = ["simulate", *WHERE, "--actions"]


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--planner", "astar", *WHERE],
        ["plan", "--planner", "astar", *WHERE, "--format", "json"],
        [*SIMULATE, "[[0,0],[0,0],[0,0],[1,0]]"],
        [*SIMULATE, "[[0,0],[0,0],[0,0],[1,0]]", "--format", "json"],
        [*SIMULATE, "[[0,0]]"],
        [*SIMULATE, "[[0,0]]", "--format", "json"],
        ["bench", "--planners", "heuristic,astar", "--n", "5", "--rows", "6", "--len", "6"],
        ["bench", "--planners", "heuristic", "--rows", "4,8", "--n", "5", "--len", "5"],
        ["train", "--stages", "3", "--steps", "100", "--len", "4", "--out", "m.npz"],
        ["export", "--plan-json", "plan.json", "--geometry", "geom.cfg"],
        ["export", "--plan-json", "plan.json", "--geometry", "geom.cfg", "--format", "json"],
    ],
    ids=[
        "plan", "plan-json", "simulate", "simulate-json", "simulate-failing", "simulate-failing-json",
        "bench", "bench-scaling", "train", "export", "export-json",
    ],
)
def test_closed_stdout_keeps_the_exit_code_and_the_files(capsys, tmp_path, monkeypatch, argv):
    # the reader of standard output has gone, as with `| head -c 1`: a pipe
    # whose read end is closed, so writes fail with EPIPE (SIGPIPE is ignored)
    plan_code, plan_doc, _ = run_cli(capsys, "plan", "--planner", "astar", *WHERE, "--format", "json")
    assert plan_code == 0

    def run_in(name):
        workdir = tmp_path / name
        workdir.mkdir()
        (workdir / "plan.json").write_text(plan_doc)
        (workdir / "geom.cfg").write_text(GEOMETRY)
        monkeypatch.chdir(workdir)
        return workdir

    open_dir = run_in("open")
    open_code, open_out, _ = run_cli(capsys, *argv)
    assert open_out
    closed_dir = run_in("closed")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        code = main(argv)
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))  # the rest went there
    err = capsys.readouterr().err
    assert code == open_code
    assert "error" not in err.lower() and "Traceback" not in err
    assert sorted(p.name for p in closed_dir.iterdir()) == sorted(p.name for p in open_dir.iterdir())


@pytest.mark.parametrize("argv", [
    ["train", "--stages", "3", "--steps", "100", "--out", "m.npz"],
    ["bench", "--planners", "heuristic", "--n", "5", "--output-dir", "out"],
], ids=["train", "bench"])
def test_interrupt_exits_130_with_one_line(capsys, tmp_path, monkeypatch, argv):
    # no signal is sent: the patched work raises as Ctrl-C would
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_curriculum", interrupted)
    monkeypatch.setattr(cli, "run_benchmark", interrupted)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 130
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith(("config:", "generating"))] == ["interrupted"]
    assert "Traceback" not in err
    # nothing is written before the work ends; bench has made its output directory
    assert [p.name for p in tmp_path.rglob("*")] == ([] if argv[0] == "train" else ["out"])


@pytest.mark.parametrize(
    "first, second",
    [
        (["plan", "--planner", "astar", *WHERE, "--format", "json"],
         ["plan", "--planner", "astar", *WHERE]),
        (["simulate", *WHERE, "--actions", "[[0,0],[0,0],[0,0],[1,0]]", "--format", "json"],
         ["simulate", *WHERE, "--actions", "[[0,0],[0,0],[0,0],[1,0]]"]),
    ],
)
def test_back_to_back_calls_share_no_values(capsys, first, second):
    # the parser is built once per process; each call parses afresh
    code, out, _ = run_cli(capsys, *first)
    assert code == 0
    assert json.loads(out)["success"] is True
    code, out, err = run_cli(capsys, *second)
    assert code == 0
    assert out.split()[0] == {"plan": "macro", "simulate": "start:"}[second[0]]  # text, not JSON
    assert "format=json" not in err
    code, out, _ = run_cli(capsys, *first)
    assert json.loads(out)["success"] is True
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--planners", "heuristic", "--rows", "10,20", "--n", "0"],
        ["bench", "--planners", "heuristic", "--n", "0"],
        ["bench", "--planners", "heuristic", "--n", "-3"],
        ["bench", "--planners", "heuristic", "--n", "2", "--repetitions", "0"],
        ["train", "--stages", "3", "--steps", "0", "--out", "m.npz"],
        ["train", "--stages", "3", "--steps", "-4", "--out", "m.npz"],
    ],
)
def test_counts_below_one_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "at least 1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--planners", "heuristic", "--n", "2", "--seed", "-3", "--output-dir", "out"],
        ["bench", "--planners", "heuristic", "--rows", "4,6", "--n", "2", "--seed", "-3", "--output-dir", "out"],
        ["train", "--stages", "3", "--steps", "5", "--seed", "-1", "--out", "m.npz"],
    ],
)
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed" in errors[0] and "at least 0" in errors[0]
    assert list(tmp_path.iterdir()) == []  # no output directory, no checkpoint


@pytest.mark.parametrize(
    "argv, value",
    [
        (["bench", "--planners", "heuristic", "--seed", "x", "--output-dir", "out"], "x"),
        (["bench", "--planners", "heuristic", "--n", "x", "--output-dir", "out"], "x"),
        (["bench", "--planners", "heuristic", "--repetitions", "1.5", "--output-dir", "out"], "1.5"),
        (["bench", "--planners", "heuristic", "--rows", "4,6", "--seed", "x", "--output-dir", "out"], "x"),
        (["bench", "--planners", "heuristic", "--rows", "4,6", "--n", "x", "--output-dir", "out"], "x"),
        (["train", "--stages", "3", "--steps", "x", "--out", "m.npz"], "x"),
        (["train", "--stages", "3", "--steps", "5", "--seed", "x", "--out", "m.npz"], "x"),
    ],
)
def test_non_integer_count_or_seed_names_the_int_expected(capsys, tmp_path, monkeypatch, argv, value):
    # as --rows x does, not the name of the private function that parses it
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"invalid int value: {value!r}"), errors
    assert list(tmp_path.iterdir()) == []  # no output directory, no checkpoint


@pytest.mark.parametrize(
    "form, message",
    [
        (["--rows", "1"], "num_rows must be >= 2, got 1"),
        (["--len", "0"], "corridor_len must be >= 1, got 0"),
        (["--rows", "1,5"], "num_rows must be >= 2, got 1"),
        (["--rows", "4,5", "--len", "0"], "corridor_len must be >= 1, got 0"),
    ],
)
def test_bench_bad_field_size_exits_1_making_no_directory(capsys, tmp_path, form, message):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "bench", "--planners", "heuristic", "--n", "2", *form, "--output-dir", str(out_dir)
    )
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]
    assert not out_dir.exists()


HUGE = str(10**20)  # past 2**63, the largest bound numpy's Generator.integers draws below


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--planners", "heuristic", "--len", HUGE, "--n", "5", "--output-dir", "o"], "--len"),
        (["bench", "--planners", "heuristic", "--rows", HUGE, "--n", "5", "--output-dir", "o"], "--rows"),
        (["bench", "--planners", "heuristic", "--rows", f"4,{HUGE}", "--n", "5", "--output-dir", "o"], "--rows"),
        (["train", "--stages", "3", "--steps", "10", "--len", HUGE, "--out", "m.npz"], "--len"),
        (["train", "--stages", f"3..{HUGE}:{10**19}", "--steps", "10", "--out", "m.npz"], "--stages"),
    ],
    ids=["bench-len", "bench-rows", "bench-sweep", "train-len", "train-stages"],
)
def test_a_size_numpy_cannot_draw_below_exits_1_naming_the_flag(capsys, tmp_path, monkeypatch, argv, flag):
    bound = (
        "2**63, the largest bound numpy draws below" if flag == "--len"
        else "2**52 + 1, past which corridors are inexact"  # a width that large is refused sooner
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate_instances", lambda *a: pytest.fail("an instance was drawn"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: argument {flag}: must be at most {bound}, got {10**20}"
    ]
    assert list(tmp_path.iterdir()) == []


def test_the_largest_size_numpy_draws_below_parses():
    # and the widest field whose corridors are exact floats
    parse, most, widest = cli.build_parser().parse_args, 2**63, 2**52 + 1
    args = parse(["bench", "--planners", "heuristic", "--rows", f"4,{widest}", "--len", str(most)])
    assert (args.rows, args.len) == ([4, widest], most)
    args = parse(["train", "--stages", str(widest), "--steps", "1", "--len", str(most), "--out", "m.npz"])
    assert (args.stages, args.len) == ([widest], most)


def test_plan_and_simulate_keep_fields_numpy_cannot_draw_below(capsys):
    where = ["--rows", HUGE, "--len", HUGE, "--start", "0.5,3,0", "--goal", "40,4"]
    code, out, _ = run_cli(capsys, "plan", "--planner", "astar", *where, "--format", "json")
    assert code == 0
    actions = json.dumps(json.loads(out)["raw_actions"])
    assert run_cli(capsys, "simulate", *where, "--actions", actions, "--format", "json")[0] == 0


@pytest.mark.parametrize("form", [["--rows", "65"], ["--rows", "4,65"]], ids=["rows", "scaling"])
def test_bench_model_narrower_than_the_field_exits_1_as_plan_does(capsys, tmp_path, monkeypatch, form):
    # run per instance, the width error would only show as a 0%-success dqn row
    model = tmp_path / "narrow.npz"
    save_checkpoint(model, QNetwork(10, (8,)), TrainConfig(hidden_sizes=(8,)), 4, 0)
    generated = []
    monkeypatch.setattr(cli, "generate_instances", lambda *a: generated.append(a) or [])
    monkeypatch.setattr(cli, "scaling_sweep", lambda *a, **k: generated.append(a) or [])
    code, _, err = run_cli(
        capsys, "plan", "--planner", "dqn", "--model", str(model),
        "--rows", "65", "--len", "10", "--start", "0.5,3,0", "--goal", "40,4",
    )
    assert code == 1
    plan_errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert plan_errors == ["error: field has 65 rows but the network covers 4"]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "bench", "--planners", "astar,dqn", "--model", str(model), "--n", "2", *form,
        "--output-dir", str(out_dir),
    )
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == plan_errors
    assert generated == []
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--planner", "heuristic", *WHERE, "--seed", "1"],
        ["plan", "--planner", "heuristic", *WHERE, "--output-dir", "out"],
        ["plan", "--planner", "heuristic", *WHERE, "--format", "csv"],
        ["simulate", *WHERE, "--actions", "[]", "--seed", "1"],
        ["simulate", *WHERE, "--actions", "[]", "--output-dir", "out"],
        ["simulate", *WHERE, "--actions", "[]", "--format", "csv"],
        ["train", "--stages", "3", "--steps", "5", "--out", "m.npz", "--output-dir", "out"],
        ["train", "--stages", "3", "--steps", "5", "--out", "m.npz", "--format", "json"],
        ["bench", "--planners", "heuristic", "--n", "2", "--format", "json"],
        ["export", "--plan-json", "p.json", "--geometry", "g.cfg", "--seed", "1"],
        ["bench", "--planners", "heuristic", "--scaling", "4,6", "--n", "2"],  # --rows 4,6 sweeps
    ],
)
def test_removed_no_op_options_exit_1(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments" in err or "invalid choice" in err
    assert list(tmp_path.iterdir()) == []


def _run_module(*argv, **kwargs):
    """``python -m croprow`` in a child that imports the package from where this
    process found it; ``kwargs`` go to ``subprocess.run``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-m", "croprow", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        **kwargs,
    )


def test_module_entry_point():
    proc = _run_module(
        "plan", "--planner", "heuristic", "--rows", "4", "--len", "5", "--start", "1.5,2,0", "--goal", "2,4"
    )
    assert proc.returncode == 0
    assert "macro [[0,0],[1,0]]" in proc.stdout


def test_version_entry_points_print_the_project_version(capsys):
    # read with a regex: tomllib is not in Python 3.10
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M).group(1)
    assert run_cli(capsys, "--version")[:2] == (0, f"{version}\n")
    proc = _run_module("--version")
    assert (proc.returncode, proc.stdout) == (0, f"{version}\n")


class _ClosedStderr:
    """Standard error after `2>&-`: every write fails as a closed descriptor does."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize(
    "argv, want",
    [
        (["plan", "--planner", "astar", *WHERE, "--format", "json"], 0),
        (["plan", "--planner", "astar", "--rows", "4", "--len", "5", "--start", "1.5,2,0", "--goal", "9,4"], 1),
        (["plan", "--planner", "nope", *WHERE], 1),
        ([*SIMULATE, "[[0,0]]"], 2),
        ([*SIMULATE, "[[0,0]]", "--format", "json"], 2),
        (["export", "--plan-json", "plan.json", "--geometry", "geom.cfg"], 0),
    ],
    ids=["plan", "bad-goal", "usage", "simulate-failing", "simulate-failing-json", "export"],
)
def test_closed_stderr_keeps_the_exit_code_and_stdout(capsys, tmp_path, monkeypatch, argv, want):
    monkeypatch.setattr(cli, "timed_call", lambda planner, request: (planner.plan(request), 1))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.json").write_text(run_cli(capsys, "plan", "--planner", "astar", *WHERE, "--format", "json")[1])
    (tmp_path / "geom.cfg").write_text(GEOMETRY)
    open_code, open_out, open_err = run_cli(capsys, *argv)
    assert open_code == want and open_err
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", _ClosedStderr())
        code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (open_code, open_out)
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, want",
    [
        (["plan", "--planner", "astar", *WHERE, "--format", "json"], 0),
        (["plan", "--planner", "nope", *WHERE], 1),
    ],
    ids=["plan", "usage"],
)
def test_started_without_stderr_keeps_notes_off_stdout(argv, want):
    # fd 2 closed before exec, so the child's sys.stderr is None
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "croprow", *argv],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        preexec_fn=lambda: os.close(2),
    )
    assert proc.returncode == want
    if want == 0:
        assert json.loads(proc.stdout)["success"] is True
    else:
        assert proc.stdout == ""


CLI_DIGEST = "528db62f4759111a1b3d1b01db31e32f5ede21f9ea28f580c9c5ab6c7e873399"


def test_cli_output_bytes_match_the_pinned_digest():
    # tools/cli_digest.py hashes plan, simulate and export output on seeded
    # suites at 4, 65 and 1,000 rows; any changed byte changes its last line
    tool = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(tool)],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == f"all {CLI_DIGEST} ok"
