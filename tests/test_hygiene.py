"""Source hygiene: every module of the package uses each name it imports,
and every private top-level name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "socenv"
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
