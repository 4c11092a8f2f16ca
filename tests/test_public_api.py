"""Every public name a module declares exists, and the package re-exports
only declared names, so a deletion cannot leave a stale entry behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import boltzsphere

MODULES = [m.name for m in pkgutil.iter_modules(boltzsphere.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"boltzsphere.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_declared_names():
    tree = ast.parse(Path(boltzsphere.__file__).read_text(encoding="utf-8"))
    undeclared = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"boltzsphere.{node.module}")
            undeclared += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__
            ]
    assert undeclared == []
