"""The per-layer tracer finds every weylflow entry point it wraps.

``perfbench/tracer.py`` wraps functions and methods by name, and a name it
cannot find reads as a layer that does no work.  This test loads the
tracer by path, only reads its tables, and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
