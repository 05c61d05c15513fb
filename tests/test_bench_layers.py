"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, and its set-up (perfbench/workloads.py) builds every batch with the
package; a renamed function or a changed signature would make
`perfbench/run.py` fail, so both are run here against the package."""

import contextlib
import importlib
import importlib.util
import io
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import distortion.cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # no __pycache__ under perfbench/
    tracing = _load("perfbench_tracing", PERFBENCH / "tracing.py")
    assert tracing.LAYERS
    for name in tracing.LAYERS:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"distortion.{module_name}")
        owner = module.IntMatrix if attr == "det" else module    # the tracer wraps det on the class
        assert callable(getattr(owner, attr, None)), name


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, with its sibling plainmath; both are dropped
    from sys.modules afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # no __pycache__ under perfbench/
    for name, file in (("plainmath", "plainmath.py"), ("perfbench_workloads", "workloads.py")):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / file)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)      # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


def test_benchmark_batches_build_and_warm_up(workloads, tmp_path):
    # the package as run.py's load_package passes it, but not re-imported
    pkg = SimpleNamespace(
        root=ROOT,
        gen_psi_tables=_load("gen_psi_tables", ROOT / "tools" / "gen_psi_tables.py"),
        **{name: importlib.import_module(f"distortion.{name}")
           for name in ("exact", "symplectic", "exterior", "mapclass", "engine", "oracle", "cli")},
    )
    for name, build in workloads.BUILDERS.items():
        work = tmp_path / name
        work.mkdir()
        jobs, warmups = build(random.Random(1), work, pkg)
        assert jobs and warmups, name
        for argv in warmups:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = distortion.cli.main(argv)
            assert rc in (0, 1), (name, argv)
