"""Source checks on the package: every imported name is used."""

import ast
from pathlib import Path

import pytest

import redchern

MODULES = sorted(Path(redchern.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, with their lines.

    A name listed in __all__ is used by being exported, and the
    `annotations` feature of `from __future__` is used by being imported.
    """
    tree = ast.parse(source)
    imported = {}
    exempt = {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exempt.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exempt
    ]


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction as Q\n"
        "from math import comb\n"
        "__all__ = ['comb']\n"
        "x: Q = Q(1)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
