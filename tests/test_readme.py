"""README's "Library quick start" block runs as written."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

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
