"""Every name a library module imports is used there or exported, and
every private name it defines is read somewhere in the library."""

from __future__ import annotations

import ast
from itertools import chain
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


def _unread_private_names(sources: list[str]) -> list[str]:
    """The private names (``_name``, dunders aside) that a module of
    ``sources`` defines at its top level or in a class body, and that no
    module of them reads as a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in chain(tree.body, *classes):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return [
        name for name in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


def test_every_private_name_is_read():
    sources = [path.read_text(encoding="utf-8") for path in Path(weakform.__file__).parent.glob("*.py")]
    assert _unread_private_names(sources) == []


def test_the_scan_finds_an_unread_private_name():
    sources = [
        "import json\n"
        "_LIMIT = 3\n"
        "_dead: int = 4\n"
        "def _helper():\n"
        "    return json.dumps(_LIMIT)\n"
        "class _Base:\n"
        "    _slot = None\n"
        "    def __init__(self):\n"
        "        self._unused = 1\n"
        "    def _stale(self):\n"
        "        return self._slot\n",
        "from .a import _helper, _Base\n"
        "class B(_Base):\n"
        "    pass\n"
        "_helper()\n",
    ]
    assert _unread_private_names(sources) == ["_dead", "_stale"]
