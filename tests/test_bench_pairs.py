"""tools/bench_pairs.py writes its file whatever the runs gave: a run that
prints no result, a phase of one pair and a full phase are each summarized
over the pairs where both sides gave a result.  The tool is loaded by path
and its clone and perfbench run are replaced by stubs, so no tree is cloned
and nothing is timed."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_lines(workload: str, metrics: dict) -> list[dict]:
    """What perfbench/run.py prints for one workload: a detail line, then the result."""
    detail = {"workload": workload, "failed_frac": 0.0, "measured_s": 1.0, "environment": {"cpu_count": 2}}
    return [{"detail": detail}, {"metrics": {name: {"value": value} for name, value in metrics.items()}}]


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """Runs the tool with one canned result per (side, pair); None is a run that
    died without a result.  Returns the exit code, the written file and the
    sides in the order they ran."""
    tool = load_tool()
    monkeypatch.setattr(tool, "export", lambda sha, dest: f"{sha}-full")

    def go(results: dict, pairs: int):
        ran, counts = [], {"parent": 0, "change": 0}

        def run(tree, workload, seed, seconds):
            side = tree.name
            counts[side] += 1
            ran.append(side)
            metrics = results[side][counts[side] - 1]
            return (1, []) if metrics is None else (0, result_lines(workload, metrics))

        monkeypatch.setattr(tool, "run", run)
        out = tmp_path / "bench.json"
        code = tool.main(["--parent", "p", "--change", "c", "--out", str(out),
                          "--phase", f"wide-1000:1:25:{pairs}", "--claim", "wide-1000 latency_p50_us"])
        return code, json.loads(out.read_text()), ran

    return go


def test_a_run_without_a_result_keeps_the_file_and_exits_1(bench):
    code, doc, _ = bench({"parent": [{"latency_p50_us": 100.0}], "change": [None]}, pairs=1)
    assert code == 1
    assert doc["summary"] == {}  # no pair where both sides gave a result
    assert [(r["side"], r["workload"], r["exit_code"]) for r in doc["records"]] == [
        ("parent", "wide-1000", 0), ("change", None, 1)]
    assert (doc["parent_sha"], doc["change_sha"]) == ("p-full", "c-full")


def test_one_pair_has_no_spread(bench):
    code, doc, _ = bench({"parent": [{"latency_p50_us": 100.0}], "change": [{"latency_p50_us": 90.0}]}, pairs=1)
    assert code == 0
    assert doc["summary"]["wide-1000@seed1"]["latency_p50_us"] == {
        "parent_median": 100.0, "change_median": 90.0, "ratio": 0.9, "parent_iqr": None,
        "change_won": 1, "pairs": 1}


def test_three_pairs_count_wins_by_each_metric_direction(bench):
    parent = [{"latency_p50_us": 100.0, "throughput_per_s": 10.0},
              {"latency_p50_us": 110.0, "throughput_per_s": 12.0},
              {"latency_p50_us": 120.0, "throughput_per_s": 11.0}]
    change = [{"latency_p50_us": 90.0, "throughput_per_s": 9.0},
              {"latency_p50_us": 115.0, "throughput_per_s": 13.0},
              {"latency_p50_us": 100.0, "throughput_per_s": 12.0}]
    code, doc, ran = bench({"parent": parent, "change": change}, pairs=3)
    assert code == 0
    assert ran == ["parent", "change", "change", "parent", "parent", "change"]
    summary = doc["summary"]["wide-1000@seed1"]
    assert summary["latency_p50_us"]["change_won"] == 2  # lower is better: pairs 1 and 3
    assert summary["latency_p50_us"]["parent_median"] == 110.0
    assert summary["latency_p50_us"]["change_median"] == 100.0
    assert summary["latency_p50_us"]["parent_iqr"] == pytest.approx(10.0)
    assert summary["throughput_per_s"]["change_won"] == 2  # higher is better: pairs 2 and 3
    assert len(doc["records"]) == 6 and doc["claim"] == "wide-1000 latency_p50_us"
