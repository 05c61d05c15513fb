"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name; a renamed function would make `perfbench/run.py --trace 1` fail, so
every name it lists must still resolve in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name in tracing.LAYERS:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"distortion.{module_name}")
        owner = module.IntMatrix if attr == "det" else module    # the tracer wraps det on the class
        assert callable(getattr(owner, attr, None)), name
