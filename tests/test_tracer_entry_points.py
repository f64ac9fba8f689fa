"""The per-layer tracer finds every weylflow entry point it wraps.

``perfbench/tracer.py`` wraps functions and methods by name, and a name it
cannot find reads as a layer that does no work.  These tests load the
tracer by path, only read its tables, and resolve each name.  The tracer
wraps only the modules that ``import weylflow.cli`` has loaded, so the
start-up guard checks that importing the CLI loads all of them, and that
it loads neither ``dataclasses`` nor ``inspect``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("weylflow_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_functions_and_methods_resolve():
    tracer = _tracer_module()
    missing = []
    for _, module, attr in tracer.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for _, module, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        # the tracer replaces the method on the class that defines it
        if cls is None or attr not in cls.__dict__:
            missing.append(f"{module}.{cls_name}.{attr}")
    assert tracer.FUNCTIONS and tracer.METHODS
    assert missing == []


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    tracer = _tracer_module()
    traced = sorted({entry[1] for entry in tracer.FUNCTIONS + tracer.METHODS})
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, json, weylflow.cli; print(json.dumps(sorted(sys.modules)))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    loaded = set(json.loads(child.stdout))
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert [m for m in traced if m not in loaded] == []
