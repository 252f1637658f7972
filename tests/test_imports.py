"""Every name a module under ``src/icdkit`` imports is used there."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parents[1] / "src" / "icdkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads; a name
    listed in ``__all__`` counts as read, and ``__future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from typing import Any, List\nfrom x import y\n__all__ = ['y']\nz: List = j\n")
    assert unused_imports(source) == ["os", "Any"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
