"""tools/cli_digest.py prints ok and exits 0 only while its digest matches the
pin; a changed output byte prints DIFFERS and exits 1.  The full suites take
seconds, so these tests swap in one small width."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


@pytest.fixture
def tool(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location("cli_digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SIZES", ((4, 2),))
    monkeypatch.setattr(module, "PIN", module.digest_all())
    return module


def test_matching_digest_prints_ok_and_exits_0(tool, capsys, tmp_path):
    capsys.readouterr()
    assert tool.main() == 0
    width, total = capsys.readouterr().out.splitlines()
    assert width.startswith("rows=4 n=2 ")
    assert total == f"all {tool.PIN} ok"
    assert Path.cwd() == tmp_path and list(tmp_path.iterdir()) == []


def test_changed_output_byte_prints_differs_and_exits_1(tool, capsys, monkeypatch):
    run = tool.run

    def one_more_byte(*argv):
        code, out, err = run(*argv)
        return code, out + " ", err

    monkeypatch.setattr(tool, "run", one_more_byte)
    assert tool.main() == 1
    assert capsys.readouterr().out.split()[-1] == "DIFFERS"
