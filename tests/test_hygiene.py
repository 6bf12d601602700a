"""Every name a library module imports is used there or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import weakform

MODULES = sorted(p for p in Path(weakform.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names bound by an import (``from __future__`` aside) that no
    ``Name`` of the module reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from math import comb as c, lcm\n"
        "__all__ = ['lcm']\n"
        "def f():\n"
        "    from operator import or_\n"
        "    return json.dumps(c(2, 1))\n"
    )
    assert _unused_imports(source) == ["os", "or_"]
