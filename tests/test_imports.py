"""Every name a module of mkt imports is used in that module, and no module
imports a private name from another.

`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mkt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never mentions, with their lines."""
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_flags_an_unused_name():
    source = "import os\nimport os.path as p\nfrom a import b, c as d\nprint(os, d.x)\n"
    assert unused_imports(source) == ["b (line 3)", "p (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """The _-prefixed names that source imports from mkt modules, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "mkt":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_flags_a_private_import():
    source = ("from __future__ import annotations\nfrom mkt.fields import _kind, embed\n"
              "from .linalg import _cleared\nfrom os import _exit\n"
              "def f():\n    from mkt import _x\n")
    assert private_imports(source) == ["_kind (line 2)", "_cleared (line 3)", "_x (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []
