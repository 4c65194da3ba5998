"""Source hygiene: every function, class and method that the package defines
is read somewhere in the package, its scripts or the benchmark, so no API
survives for the tests alone."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINING = sorted(ROOT.glob("src/symstrat/*.py"))
READING = sorted([*DEFINING, *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("perfbench/*.py")])


def defined_names(source: str) -> set:
    """The names of the functions, classes and methods, nested ones
    included, that the module defines; dunders are exempt."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def read_names(source: str) -> set:
    """The names that the module reads: loaded variables and attributes.

    The match is by name alone, so a method counts as read wherever an
    attribute of that name is read."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    return read


def test_the_scan_sees_what_it_should():
    source = ("class A:\n"
              "    def __init__(self):\n        self.x = 1\n"
              "    def used(self):\n        return helper()\n"
              "    def unused(self):\n        pass\n"
              "def helper():\n    pass\n"
              "def orphan():\n    pass\n"
              "A().used()\n")
    assert defined_names(source) - read_names(source) == {"unused", "orphan"}


def test_every_defined_name_is_read():
    read = set().union(*(read_names(p.read_text(encoding="utf-8"))
                         for p in READING))
    unread = {f"{p.relative_to(ROOT)}: {name}"
              for p in DEFINING
              for name in defined_names(p.read_text(encoding="utf-8"))
              if name not in read}
    assert sorted(unread) == []
