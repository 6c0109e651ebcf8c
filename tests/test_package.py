"""Package hygiene: every exported name resolves, every demo runs and
every function the benchmark patches or imports exists."""

import ast
import hashlib
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
# SHA-256 of the stdout of the demos that print exact tables, run on one
# BLAS thread so the printed residuals are reproducible
DEMO_STDOUT_SHA256 = {
    "02_biharmonic_one_variable": "d18e4a15f7dc296d579dcc2c69b44e46731f0c0456ace739c2b87c28d116bc92",
    "03_two_variable_families": "1744de47152b8f459d85cc2339fd44d0e9fa20545a2e09a887f5e0131e500926",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"biforge.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem in DEMO_STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]


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


def test_bench_check_imports_resolve():
    # bench/checks.py imports biforge names inside its check functions; a
    # removed name would otherwise only show up as a failed benchmark run
    tree = ast.parse((ROOT / "bench" / "checks.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("biforge"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert "OperatorContext" in imported and "QuadrupleFamily" in imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            assert hasattr(imported[node.value.id], node.attr), f"{node.value.id}.{node.attr}"
