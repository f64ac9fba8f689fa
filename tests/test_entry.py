"""The process entry: ``python -m weylflow`` and the ``weylflow`` script.

Both run ``cli.run``, which freezes the heap before the process ends, so the
interpreter's exit-time collections skip what the command left alive.  A
child process must still write the recorded bytes with the same exit code.
"""

import gc
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from weylflow import cli

from test_golden import INTEGRATE_RUNS

ROOT = Path(__file__).resolve().parents[1]
POLE = "singularity guard triggered; trajectory is partial\n"

# run name -> (argv, the recorded stdout of a run that exits 0)
STDOUT_RUNS = {
    "verify": (["verify", "A1_1", "all"], "tests/golden/verify_A1_1.json"),
    "ansatz": (["ansatz", "A1_1"], "perfbench/reference/ansatz_A1_1.json"),
    "export": (["export", "A1_1"], "tests/golden/export_A1_1.json"),
}


def _child(argv, **kwargs):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=60, **kwargs)


@pytest.mark.parametrize("name", sorted(STDOUT_RUNS))
def test_module_entry_writes_the_recorded_report(name):
    argv, recorded = STDOUT_RUNS[name]
    child = _child(["-m", "weylflow", *argv])
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == (ROOT / recorded).read_text()


def test_module_entry_writes_the_recorded_partial_trajectory(tmp_path):
    argv, code = INTEGRATE_RUNS["A4_2-rk4-pole"]
    out = tmp_path / "run.csv"
    child = _child(["-m", "weylflow", "integrate", *argv, "--out", str(out)])
    assert (child.returncode, child.stdout, child.stderr) == (code, "", POLE)
    recorded = ROOT / "tests" / "golden" / "integrate_A4_2-rk4-pole.csv"
    assert out.read_text() == recorded.read_text()


def test_entry_freezes_the_heap_and_main_does_not(capsys):
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
            " file=sys.stderr))\n"
            "sys.argv = ['weylflow', 'export', 'A1_1']\n"
            "runpy.run_module('weylflow', run_name='__main__')\n")
    child = _child(["-c", code])
    assert child.returncode == 0
    assert child.stdout == (ROOT / STDOUT_RUNS["export"][1]).read_text()
    word, count = child.stderr.split()
    assert word == "frozen" and int(count) > 0
    assert cli.main(["export", "A1_1"]) == 0
    assert gc.get_freeze_count() == 0
    capsys.readouterr()


def test_console_script_names_the_entry_of_the_module(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, attr = project["scripts"]["weylflow"].split(":")
    calls = []
    monkeypatch.setattr(importlib.import_module(module), attr,
                        lambda: calls.append(attr))
    runpy.run_module("weylflow", run_name="__main__")
    assert calls == [attr]
