"""Every module-level import in src/orbifoldry/ is used: read somewhere in
its module or listed in the module's __all__.  A parameter deleted from
a signature must not leave the import it needed behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbifoldry"


def module_imports(tree):
    """(bound name, line) of each import in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    return [(name, line) for name, line in module_imports(tree)
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import gcd, lcm as least\n"
              "from typing import Any\n"
              "__all__ = ['Any']\n"
              "def f(x: int) -> int:\n"
              "    return gcd(x, 2)\n")
    assert unused_imports(source) == [("os", 2), ("least", 3)]
