"""Every name a module of mkt imports is used in that module, no module
imports a private name from another, only `fields` and `zkernel` read a
field's `_table`, so the table's layout stays behind those two, only
`fields` reads an element's table index `ix`, and no module but `zkernel`
calls a private `zkernel._*` routine, so a tracer that wraps the public
`zp_*` names sees every call into the kernel.

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


# the modules that may read a field's `_table`: fields builds it, zkernel
# computes with it; every other module goes through fields.kernel_kind
TABLE_OWNERS = {"fields.py", "zkernel.py"}


def attribute_reads(source: str, name: str) -> list[str]:
    """The lines on which source reads an attribute called name."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == name]


def test_flags_a_table_read():
    source = "tab = field._table\nadd = f.base._table.add\nfield.table = 1\n"
    assert attribute_reads(source, "_table") == ["line 1", "line 2"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in TABLE_OWNERS],
                         ids=lambda p: p.name)
def test_no_table_reads(path):
    assert attribute_reads(path.read_text(), "_table") == []


def test_flags_an_index_read():
    source = "i = x.ix\nrow = tab.add[a.ix][b.ix]\nix = 1\n"
    assert attribute_reads(source, "ix") == ["line 1", "line 2", "line 2"]


# an element's ix is its position in its field's table, which only fields knows
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_no_index_reads(path):
    assert attribute_reads(path.read_text(), "ix") == []


def private_kernel_calls(source: str) -> list[str]:
    """The lines on which source calls, or otherwise reads, a _-prefixed
    attribute of the name `zkernel`."""
    found = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and isinstance(node.value, ast.Name) and node.value.id == "zkernel")
    return [f"{attr} (line {line})" for line, attr in found]


def test_flags_a_private_kernel_call():
    source = ("from mkt import zkernel\nq, r = zkernel._divmod(a, b, p)\n"
              "f = zkernel._gcd\nzkernel.zp_gcd(a, b, p)\nother._gcd(a)\n")
    assert private_kernel_calls(source) == ["_divmod (line 2)", "_gcd (line 3)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "zkernel.py"],
                         ids=lambda p: p.name)
def test_no_private_kernel_calls(path):
    assert private_kernel_calls(path.read_text()) == []
