import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gner

MODULES = ["gner"] + [f"gner.{m.name}" for m in pkgutil.iter_modules(gner.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}: duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(path: Path) -> set[str]:
    """Names a file reads: bare names and attribute names in load context,
    so definitions, ``__all__`` strings and docstrings do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # The package ships no API that only tests use: every name a module
    # exports, unless the package root re-exports it, is read somewhere in
    # src/, scripts/ or perfbench/.
    used = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            used |= _loaded_names(path)
    unused = [
        f"{name}.{attr}"
        for name in MODULES[1:]
        for attr in getattr(importlib.import_module(name), "__all__", [])
        if attr not in gner.__all__ and attr not in used
    ]
    assert not unused, f"exported but used only by tests: {unused}"
