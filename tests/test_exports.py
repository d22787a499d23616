"""Every exported name resolves: stale ``__all__`` entries break tracing."""

import ast
import importlib
import pkgutil
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
    # no test runs the demos, so a removed name would break them silently
    imports = [node for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "repelflow"]
    assert imports, f"{demo.name} imports nothing from repelflow"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"


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
