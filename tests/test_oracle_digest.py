"""tools/oracle_digest.py prints ok and exits 0 only while every digest matches
its pin; a changed distance prints DIFFERS and exits 1.  The full sets take
seconds, so these tests swap in one small set."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oracle_digest.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("oracle_digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, pin = module.digest(module.every_pose_and_goal(4, 3))
    monkeypatch.setattr(module, "SETS", {"small": (lambda: module.every_pose_and_goal(4, 3), pin)})
    return module


def test_matching_digest_prints_ok_and_exits_0(tool, capsys):
    assert tool.main() == 0
    name, count, _, verdict = capsys.readouterr().out.split()
    assert (name, count, verdict) == ("small", str(3 * 5 * 2 * 4 * 3), "ok")


def test_changed_distance_prints_differs_and_exits_1(tool, capsys, monkeypatch):
    oracle = tool.oracle_shortest
    monkeypatch.setattr(tool, "oracle_shortest", lambda field, pose, goal: oracle(field, pose, goal) + (pose.y == 2))
    assert tool.main() == 1
    assert capsys.readouterr().out.split()[-1] == "DIFFERS"
