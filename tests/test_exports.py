"""Public names: every export resolves and is declared in the module it comes from."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import steerlab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(steerlab.__path__) if m.name != "__main__")


def _package_imports():
    """(submodule, name) for every ``from .submodule import name`` in the package root."""
    tree = ast.parse(Path(steerlab.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", ["steerlab", *(f"steerlab.{m}" for m in SUBMODULES)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(mod, n)] == []


def test_reexports_are_declared_by_their_module():
    undeclared = []
    for module, name in _package_imports():
        declared = getattr(importlib.import_module(f"steerlab.{module}"), "__all__", None)
        if declared is not None and name not in declared:
            undeclared.append(f"{module}.{name}")
    assert undeclared == []


def test_package_all_lists_exactly_its_imports():
    assert sorted(name for _, name in _package_imports()) == sorted(steerlab.__all__)


def test_linalg_functions_have_library_callers():
    """Every function ``linalg`` defines is imported by another package module."""
    package = Path(steerlab.__file__).parent
    defined = {
        node.name
        for node in ast.parse((package / "linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    imported = {
        alias.name
        for path in package.glob("*.py")
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg"
        for alias in node.names
    }
    assert sorted(defined - imported) == []
