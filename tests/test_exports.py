import ast
import importlib
import json
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


_TRACED_RUN = """
import json
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from gner.corpus import build_char_vocab, germeval_schema
from gner.datagen import make_corpus, make_embedding_store
from gner.model import ModelConfig, build_model, predict_batch
from gner.training import TrainConfig, train_epoch
sentences = make_corpus(8, seed=1)
store = make_embedding_store(sentences, dim=6, seed=1)
config = ModelConfig(label_schema=germeval_schema(), char_variant="bilstm", word_dim=6, char_emb_dim=4,
                     char_lstm_cells=3, token_lstm_cells=5)
model = build_model(config, build_char_vocab(sentences), seed=1)
predict_batch(model, store, sentences)
train_epoch(model, sentences, store, TrainConfig(stage1_batch=8), 1)
print(json.dumps({name: row[2] for name, row in tracer.export()["spans"].items()}))
"""


def test_benchmark_tracer_installs_on_the_package():
    # perfbench/tracing.py wraps package functions by the names their callers
    # look up, and tells the token BiLSTM from the char BiLSTM by the
    # identity of its first argument, so renaming a function or reordering
    # its arguments in src/gner silently empties a span of a traced run.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    # One eval and one train forward, each calling both BiLSTMs once.
    assert calls["model.forward"] == 2, calls
    assert calls["layers.token_bilstm"] == 2 and calls["model.char_bilstm"] == 2, calls
