"""Source hygiene: no module of the package or its scripts imports a name
that it never uses."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/symstrat/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list:
    """The names that the module's imports bind and that no expression reads.

    A name listed in ``__all__`` counts as used (a re-export), and
    ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_sees_what_it_should():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport json as j\n"
                          "from pathlib import Path\nfrom a import b, c\n"
                          "__all__ = ['c']\nos.sep\n") == ["Path", "b", "j"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
