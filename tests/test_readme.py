"""The README "Python API" block runs, and every value it states in a comment holds."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


# the block fuses into a fixed point, which warns by design
@pytest.mark.filterwarnings("ignore::cosetchar.extension.FixedPointFusionWarning")
def test_readme_api_comments_are_values():
    # each statement runs in order; where the comment on its last line is a
    # Python expression, the statement's value must equal it, with its type
    block = _api_block()
    lines = block.splitlines()
    ns: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if not (isinstance(stmt, ast.Expr) and tail.startswith("#")):
            exec(code, ns)
            continue
        try:
            expected = eval(tail[1:].strip(), ns)
        except Exception:  # noqa: BLE001 - a prose comment states no value
            exec(code, ns)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        assert value == expected and type(value) is type(expected), ast.unparse(stmt)
        checked += 1
    assert checked == 4
