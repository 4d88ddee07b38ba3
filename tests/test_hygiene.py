"""Source hygiene: no package module imports a name it never uses, no
package function takes a parameter it never reads, no module-level
package function or constant goes unread, no package file holds an
``assert``, and `ksat.__all__` names exactly what the package imports.

No linter ships with the test dependencies, so this test is the guard.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

import pytest

import ksat

MODULES = sorted(
    path for path in Path(ksat.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
# where a package function may be read: the benchmark counts, because its
# tracer looks functions up by name
READERS = ("src", "tests", "scripts", "perfbench")
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Module-level import bindings that no name in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for every parameter, of a function or lambda,
    that its body never reads; an augmented assignment reads its target."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        every = (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.id)
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                    read.add(sub.target.id)
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{arg.arg}" for arg in every if arg and arg.arg not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["json", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_read_every_parameter(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_parameter():
    source = "def f(a, b, *rest, c=1, **extra):\n    a += 1\n    return c\ng = lambda x, y: y\n"
    assert unused_parameters(source) == ["f.b", "f.rest", "f.extra", "<lambda>.x"]


def assert_lines(source: str) -> list[int]:
    """The line of every ``assert`` statement: ``python -O`` strips them, so
    no check of the package may rest on one."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", [*MODULES, Path(ksat.__file__)], ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_assert():
    source = "def f(x):\n    assert x, 'x'\n    if x:\n        assert (x, 1)\n    return 'assert'\n"
    assert assert_lines(source) == [2, 4]


def names_read(source: str) -> set[str]:
    """Every name `source` reads: loaded names and attributes, imported
    names, and the last dotted part of each string constant, which is how
    ``getattr``, ``monkeypatch.setattr`` and ``"module.function"`` lookups
    name a function."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value.rsplit(".", 1)[-1])
    return read


def unread_functions(source: str, read: set[str]) -> list[str]:
    """Module-level functions of `source` whose names are not in `read`."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in read
    ]


@cache
def repo_reads() -> frozenset[str]:
    return frozenset().union(
        *(
            names_read(path.read_text(encoding="utf-8"))
            for folder in READERS
            for path in sorted((ROOT / folder).rglob("*.py"))
        )
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_function_is_read_by_name(path):
    assert unread_functions(path.read_text(encoding="utf-8"), repo_reads()) == []


def test_checker_flags_an_unread_function():
    module = (
        "def called():\n    pass\ndef dead():\n    return called()\n"
        "def looked_up():\n    pass\ndef imported():\n    pass\n"
        "class Holder:\n    def method(self):\n        pass\n"
    )
    reader = "from pkg import imported\ngetattr(mod, 'looked_up')\nmod.dead = None\n"
    assert unread_functions(module, names_read(module) | names_read(reader)) == ["dead"]


def unread_constants(source: str, read: set[str]) -> list[str]:
    """Names bound by module-level assignments of `source`, dunders aside,
    that are not in `read`: a budget or a table that outlives its last
    reader."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        bound += [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
    return [name for name in bound if not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_constant_is_read_by_name(path):
    assert unread_constants(path.read_text(encoding="utf-8"), repo_reads()) == []


def test_checker_flags_an_unread_constant():
    module = (
        "__all__ = ['f']\nLIMIT = 4\nBUDGET = 64 * 1024\nLOW, HIGH = 0, 1\n"
        "TABLE: dict = {}\ndef f():\n    local = 1\n    return LIMIT + HIGH + local\n"
    )
    reader = "from pkg import TABLE\n"
    assert unread_constants(module, names_read(module) | names_read(reader)) == ["BUDGET", "LOW"]


def test_all_names_exactly_what_the_package_imports():
    # `ksat.__all__` and the imports above it are two hand-kept lists of
    # the public names; a name added to one alone would go unnoticed
    tree = ast.parse(Path(ksat.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert sorted(ksat.__all__) == sorted(imported)
