"""tools/timing_margins.py refuses a busy-loop count outside 0 to the CPU
count before it starts any loop, and kills the loops it started however a
run ends.  The loops and the timed runs are replaced by stubs, so nothing is
started or timed."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "timing_margins.py"


class FakeLoop:
    def __init__(self, argv) -> None:
        self.argv, self.killed, self.waited = argv, False, False

    def kill(self) -> None:
        self.killed = True

    def wait(self) -> None:
        self.waited = True


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("timing_margins_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    started: list[FakeLoop] = []
    monkeypatch.setattr(module.subprocess, "Popen", lambda argv: started.append(FakeLoop(argv)) or started[-1])
    module.started = started
    return module


@pytest.mark.parametrize("argv", [["--busy", "-1"], ["--busy", str((os.cpu_count() or 1) + 1)], ["--runs", "0"]])
def test_out_of_range_counts_exit_2_starting_nothing(tool, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert tool.started == []
    assert "error:" in capsys.readouterr().err


def test_prints_each_run_and_kills_the_loops(tool, capsys, monkeypatch):
    monkeypatch.setattr(tool, "margins", lambda: {"heur": 60.0, "astar/heur": 3.0, "spread": 1.5})
    assert tool.main(["--runs", "2", "--busy", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"run {i}: heur 60.00x astar/heur 3.00x spread 1.50x min 1.50x" for i in (1, 2)]
    assert [(loop.killed, loop.waited) for loop in tool.started] == [(True, True)]


def test_a_failed_run_still_kills_the_loops(tool, monkeypatch):
    def fail():
        raise KeyboardInterrupt

    monkeypatch.setattr(tool, "margins", fail)
    with pytest.raises(KeyboardInterrupt):
        tool.main(["--busy", "1"])
    assert [(loop.killed, loop.waited) for loop in tool.started] == [(True, True)]
