"""tools/astar_digest.py prints ok and exits 0 only while every digest matches
its pin; a changed route or pop count prints DIFFERS and exits 1.  The full
sets take seconds, so these tests swap in one small set."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from croprow.world import FieldSpec, GoalSpec, RobotState

TOOL = Path(__file__).resolve().parents[1] / "tools" / "astar_digest.py"
FIELD = FieldSpec(4, 3)
REQUESTS = [(FIELD, RobotState(x + 0.5, y, o), GoalSpec(3, 1)) for x in range(3) for y in range(-1, 4) for o in (0, 1)]


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("astar_digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, pin = module.digest(REQUESTS)
    monkeypatch.setattr(module, "SETS", {"small": (lambda: iter(REQUESTS), pin)})
    return module


def test_matching_digest_prints_ok_and_exits_0(tool, capsys):
    assert tool.main() == 0
    name, count, _, verdict = capsys.readouterr().out.split()
    assert (name, count, verdict) == ("small", str(len(REQUESTS)), "ok")


@pytest.mark.parametrize("change", [lambda route, pops: (route, pops + 1), lambda route, pops: (route[:1], pops)])
def test_changed_route_or_pops_prints_differs_and_exits_1(tool, capsys, monkeypatch, change):
    search = tool._astar_route
    monkeypatch.setattr(tool, "_astar_route", lambda *request: change(*search(*request)))
    assert tool.main() == 1
    assert capsys.readouterr().out.split()[-1] == "DIFFERS"
