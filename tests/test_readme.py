"""README's "Library quick start" block runs as written, and the code
names README gives resolve."""

from __future__ import annotations

import ast
import importlib
import io
import pkgutil
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import weakform

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _trailing_comments(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def test_readme_quick_start_runs():
    # each line whose trailing comment is a Python expression has that
    # value (an assignment: its name has it); prose comments are skipped
    source = _quick_start()
    comments = _trailing_comments(source)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        value = None
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            if isinstance(stmt, ast.Assign):
                value = namespace[stmt.targets[0].id]
        comment = comments.get(stmt.end_lineno)
        try:
            expected = compile(comment or "", "README", "eval")
        except SyntaxError:
            continue
        assert value == eval(expected, {"Fraction": Fraction}), ast.unparse(stmt)
        checked += 1
    assert checked >= 5


def _code_roots() -> dict:
    """The names a dotted code name in README may start with: each
    library module, the test helpers, and each library class."""
    roots = {"helpers": importlib.import_module("helpers")}
    for info in pkgutil.iter_modules(weakform.__path__):
        module = importlib.import_module(f"weakform.{info.name}")
        roots[info.name] = module
        roots.update(
            (name, obj)
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        )
    return roots


def test_readme_code_names_resolve():
    # a backticked dotted name such as `tasks._policy_count` or
    # `LanguageIndex.down` names code that exists; file names are skipped
    roots = _code_roots()
    checked = 0
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text(encoding="utf-8")):
        head, *attributes = name.split(".")
        if head not in roots or name.endswith((".py", ".json", ".md")):
            continue
        found = roots[head]
        for attribute in attributes:
            assert hasattr(found, attribute), f"README names `{name}`, which does not resolve"
            found = getattr(found, attribute)
        checked += 1
    assert checked >= 20
