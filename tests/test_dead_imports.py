"""No module of the package imports a name it never uses.

No pyflakes or ruff is assumed, so each ``src/syzstab/*.py`` other than
``__init__.py`` (which imports to re-export) is parsed with ``ast``: every
name bound by a module-level import must be read somewhere in the module,
in code or in a quoted annotation.  ``__future__`` imports are exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "syzstab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        if note is not None:
            yield note


def _names_read(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in _annotations(tree):
        for n in ast.walk(note):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= _names_read(ast.parse(n.value, mode="eval"))
    return names


def unused_imports(source):
    """Names bound by the module-level imports of source and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = _names_read(tree)
    return [name for name in bound if name not in read]


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Any, Optional as Opt\n"
        "def f(x: 'Opt[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Any"]


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
