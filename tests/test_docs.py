"""README's Python examples run as written, and they import exactly the
package's documented API."""

import ast
import re
from pathlib import Path

import pytest

import qballot

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_all_resolves_and_matches_readme_imports():
    assert BLOCKS
    for name in qballot.__all__:
        assert hasattr(qballot, name), name
    imported = {
        alias.name
        for code in BLOCKS
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "qballot"
        for alias in node.names
    }
    assert imported == set(qballot.__all__)
