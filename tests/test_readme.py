"""The README "Python API" block runs, and every value it states in a comment holds.

Also: each module's ``__all__`` is the one list of public names, which the
package re-exports as it is.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cosetchar import affine, coset, extension, minimal, series

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


MODULES = (affine, coset, extension, minimal, series)


def test_each_public_name_is_declared_once():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no name in two __all__ lists
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
    # a fresh interpreter: other tests import cosetchar.cli into this one
    probe = ("import cosetchar, json, sys; print(json.dumps([sorted(n for n in vars(cosetchar)"
             " if not n.startswith('_')), 'cosetchar.cli' in sys.modules]))")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(README.parent / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    names, cli_loaded = json.loads(proc.stdout)
    assert not cli_loaded
    submodules = {module.__name__.rsplit(".", 1)[1] for module in MODULES}
    assert set(names) - submodules == set(declared)


def test_readme_series_operators_are_defined():
    # "Series support `+`, `-`, `*`, ..." names only operators FracSeries has
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Series support (.*?), exact", text, re.S).group(1)
    methods = {"+": "__add__", "-": "__sub__", "*": "__mul__", "**": "__pow__",
               "/": "__truediv__", "//": "__floordiv__"}
    operators = re.findall(r"`([^`]+)`", listed)
    assert operators
    for op in operators:
        assert hasattr(series.FracSeries, methods[op]), op
