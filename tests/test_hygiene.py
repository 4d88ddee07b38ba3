"""Source hygiene: no package module imports a name it never uses.

No linter ships with the test dependencies, so this test is the guard.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ksat

MODULES = sorted(
    path for path in Path(ksat.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import json\nimport math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["json", "path"]
