"""Package hygiene: every exported name resolves, every demo runs and
every function the traced benchmark patches exists."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import biforge

ROOT = Path(__file__).resolve().parents[1]
MODULES = [m.name for m in pkgutil.iter_modules(biforge.__path__)]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"biforge.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_layer_targets_resolve():
    # bench/layers.py patches these names by string; a rename in biforge
    # would otherwise only show up as a crash of a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for base, home, attr, callers in layers.SPANS + layers.COUNTS:
        module = importlib.import_module(f"biforge.{home}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), base
        else:
            assert callable(getattr(module, attr, None)), base
        for caller in callers:
            importlib.import_module(f"biforge.{caller}")
