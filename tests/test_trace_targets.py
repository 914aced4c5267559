"""The benchmark's tracer patches program names by attribute; each name it
lists in perfbench/workloads.py must still exist, or every traced operation
fails.  This reads the list with a recording stub and resolves each name the
way perfbench/spans.py's ``Tracer.installed`` does."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from croprow import bench, cli, dqn, planners, waypoints, world

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class Recorder:
    def __init__(self) -> None:
        self.targets: list[tuple[object, str, str]] = []

    def target(self, owner, attr: str, name: str) -> None:
        self.targets.append((owner, attr, name))


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its sibling `stats`
    monkeypatch.delitem(sys.modules, "stats", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    workloads = load_workloads(monkeypatch)
    mods = SimpleNamespace(world=world, planners=planners, bench=bench, waypoints=waypoints, dqn=dqn, cli=cli)
    recorder = Recorder()
    workloads.trace_targets(recorder, mods)
    assert recorder.targets
    for owner, attr, name in recorder.targets:
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name})"
            original = owner.__dict__[attr]
        else:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr} ({name})"
            original = getattr(owner, attr)
        assert callable(original), name
        assert name.rsplit(".", 1)[-1] == attr, name
