"""End-to-end command-line tests driven through main() in process."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from croprow.cli import _parse_stages, main
from croprow.dqn import QNetwork, TrainConfig, load_checkpoint, save_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEOMETRY = "row_spacing_m = 0.76\ncorridor_length_m = 20\n"
WHERE = ["--rows", "4", "--len", "5", "--start", "1.5,2,0", "--goal", "2,4"]


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
            "bench", "--planners", "heuristic", "--scaling", "4,8", "--n", "10",
            "--len", "5", "--seed", "3", "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert "heuristic scaling:" in out
        assert (tmp_path / "scaling.json").exists()
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert [entry["num_rows"] for entry in doc["heuristic"]] == [4, 8]

    @pytest.mark.parametrize("planners", ["", ","])
    def test_no_planner_exits_1(self, capsys, tmp_path, planners):
        code, _, err = run_cli(
            capsys, "bench", "--planners", planners, "--n", "2", "--output-dir", str(tmp_path)
        )
        assert code == 1
        assert "no planner" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_planner_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "bench", "--planners", "dijkstra", "--n", "5",
            "--output-dir", str(tmp_path),
        )
        assert code == 1
        assert "dijkstra" in err


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

    def test_trained_model_usable_by_plan(self, capsys, tmp_path):
        out_path = tmp_path / "m.npz"
        assert run_cli(
            capsys,
            "train", "--stages", "3", "--steps", "250", "--len", "4",
            "--seed", "5", "--out", str(out_path),
        )[0] == 0
        code, out, _ = run_cli(
            capsys,
            "plan", "--planner", "dqn", "--model", str(out_path),
            "--rows", "3", "--len", "4", "--start", "0.5,1,0", "--goal", "1,3",
        )
        # an untrained policy may fail to reach the goal, but never crashes
        assert code in (0, 2)
        assert "macro" in out

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

    def test_stage_parser(self):
        assert _parse_stages("5") == [5]
        assert _parse_stages("5..65:5") == list(range(5, 70, 5))
        assert len(_parse_stages("5..65:5")) == 13
        with pytest.raises(ValueError):
            _parse_stages("5..65")
        with pytest.raises(ValueError):
            _parse_stages("65..5:5")


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
@pytest.mark.parametrize("start", ["inf,2,0", "-inf,2,0", "nan,2,0"])
def test_non_finite_start_exits_1(capsys, command, start):
    extra = ["--planner", "astar"] if command == "plan" else ["--actions", "[]"]
    where = [*WHERE[:4], f"--start={start}", *WHERE[6:]]  # "=" lets "-inf" through
    code, _, err = run_cli(capsys, command, *extra, *where)
    assert code == 1
    assert "not a corridor centerline" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--planners", "heuristic", "--scaling", "10", "--n", "0"],
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
    ],
)
def test_removed_no_op_options_exit_1(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments" in err or "invalid choice" in err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "croprow",
            "plan", "--planner", "heuristic", "--rows", "4", "--len", "5",
            "--start", "1.5,2,0", "--goal", "2,4",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "macro [[0,0],[1,0]]" in proc.stdout
