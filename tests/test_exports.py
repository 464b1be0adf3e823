import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _public_names(name: str) -> set[str]:
    """A module's ``__all__`` plus every top-level function and class whose
    name has no leading underscore, exported or not."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    return defined | set(getattr(module, "__all__", []))


def test_every_public_name_has_a_caller_outside_the_tests():
    # The package ships no API that only tests use: every name a module
    # exports or defines as a public function or class, unless the package
    # root re-exports it, is read somewhere in src/, scripts/ or perfbench/.
    used = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            used |= _loaded_names(path)
    unused = [
        f"{name}.{attr}"
        for name in MODULES[1:]
        for attr in sorted(_public_names(name))
        if attr not in gner.__all__ and attr not in used
    ]
    assert not unused, f"public but used only by tests: {unused}"


def test_benchmark_tracer_installs_on_the_package():
    # perfbench/tracing.py wraps package functions by the names their callers
    # look up, so renaming one in src/gner breaks a traced benchmark run.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
