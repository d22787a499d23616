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
