"""Every exported name resolves: stale ``__all__`` entries break tracing."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repelflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(repelflow.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"repelflow.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"repelflow.{name}.__all__ lists missing {attr!r}"


def test_package_imports_exist():
    tree = ast.parse(Path(repelflow.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"repelflow.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert hasattr(repelflow, alias.asname or alias.name)


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(demo):
    # test_fast_demos_run leaves 03 out, so a removed name would break it silently
    imports = [node for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "repelflow"]
    assert imports, f"{demo.name} imports nothing from repelflow"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"


# 03 evolves a 2000-particle cloud, about 20 s on two cores without numba:
# too slow for this suite, so only its imports are checked above
FAST_DEMOS = [demo for demo in DEMOS if not demo.name.startswith("03_")]


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=[p.name for p in FAST_DEMOS])
def test_fast_demos_run(demo, tmp_path):
    # a removed keyword or option breaks a demo at run time, not at import
    src = Path(repelflow.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _dotted(node):
    """'rf.AttractionPotential.gaussian_bump' for a chain of attribute reads."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def test_benchmark_names_resolve():
    # the test suite does not collect bench/, so a removed name would break
    # the benchmark while every test here passed
    roots = {"rf": repelflow, "cli": importlib.import_module("repelflow.cli")}
    tree = ast.parse(WORKLOADS.read_text())
    chains = {_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = sorted(c for c in chains if c and c.split(".")[0] in roots)
    assert "rf.evolve" in chains and "cli.recipe" in chains
    for chain in chains:
        root, *attrs = chain.split(".")
        obj = roots[root]
        for attr in attrs:
            assert hasattr(obj, attr), f"bench/workloads.py reads missing {chain}"
            obj = getattr(obj, attr)
