"""Every module of the package uses every name it imports.

A name counts as used when it is read anywhere in the module, annotations
included.  `__init__.py` is checked too: it loads its exports on first use
rather than importing them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qballot"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_modules_found():
    assert {p.name for p in MODULES} >= {"qcore.py", "qlaurent.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_an_unused_import():
    src = "from math import comb, factorial\nimport os\nprint(factorial(3))\n"
    assert unused_imports(src) == ["line 1: comb", "line 2: os"]
    # imports inside a function, as where a module is loaded only on demand
    used = "def dump(x):\n    import json\n\n    return json.dumps(x)\n"
    assert unused_imports(used) == []
    unread = "def dump(x):\n    import json\n\n    return str(x)\n"
    assert unused_imports(unread) == ["line 2: json"]
