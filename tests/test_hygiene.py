"""Source hygiene: every module of the package uses each name it imports,
every private top-level name is used somewhere in the package, every
public function or method is used by the package or the benchmark, and
importing the package loads no optional dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "socenv"
PERFBENCH = SRC.parents[1] / "perfbench"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unused_private_names(sources: dict) -> list:
    """Private top-level names (``_x``) of each module that no module loads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = {node.id for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}: {name} (line {node.lineno})" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in loaded]
    return sorted(unused)


def test_finds_unused_import():
    source = "import csv\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["csv (line 1)", "field (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_unused_private_name():
    sources = {
        "a.py": "_TOL = 1e-9\n_SPARE = 2\n\ndef _helper():\n    return _TOL\n\n"
                "def _dead():\n    pass\n\nclass _Box:\n    pass\n",
        "b.py": "from .a import _helper\n\nVALUE = _helper()\n",
    }
    assert unused_private_names(sources) == [
        "a.py: _Box (line 10)", "a.py: _SPARE (line 2)", "a.py: _dead (line 7)"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_names(sources) == []


# Public functions that only the tests call, each with the reason it stays.
TEST_ONLY = {
    "eval_spline": "the one-point oracle that spline_samples is checked against",
    "SplineLayout.encode": "the inverse of SplineLayout.decode",
}


def public_functions(tree: ast.Module) -> list:
    """(name, line) of each public top-level function and each public method,
    methods named ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in found
            if not name.rpartition(".")[2].startswith("_")]


def loaded_names(trees) -> set:
    """Bare names and attribute names that the trees load."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def unloaded_public_functions(sources: dict, users: list) -> list:
    """Public functions and methods of ``sources`` that neither they nor ``users`` load."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = loaded_names(list(trees.values()) + [ast.parse(source) for source in users])
    return sorted(f"{module}: {name} (line {line})"
                  for module, tree in trees.items()
                  for name, line in public_functions(tree)
                  if name.rpartition(".")[2] not in loaded and name not in TEST_ONLY)


def test_finds_public_function_only_tests_call():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef spare():\n    return used()\n\n"
                "class Box:\n    def open(self):\n        pass\n\n"
                "    def shut(self):\n        pass\n\n    def __len__(self):\n        return 0\n",
    }
    users = ["import a\n\na.Box().open()\nf = a.spare\n"]
    assert unloaded_public_functions(sources, []) == [
        "a.py: Box.open (line 8)", "a.py: Box.shut (line 11)", "a.py: spare (line 4)"]
    assert unloaded_public_functions(sources, users) == ["a.py: Box.shut (line 11)"]


def test_no_public_function_only_tests_call():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    users = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert unloaded_public_functions(sources, users) == []
    defined = {name for source in sources.values() for name, _ in public_functions(ast.parse(source))}
    assert set(TEST_ONLY) <= defined


def test_import_loads_no_yaml():
    """Only a --config file needs yaml, and scipy is imported on first use, so
    ``import socenv`` and the CLI load neither."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, socenv, socenv.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
