"""Every module of the package uses every name it imports, none imports
`fractions` at module scope, and only `qlaurent` and the `analysis` oracle
bind `poly_gcd`; only `report` and `analysis` bind the suite types; and the
ring module `qring` imports nothing from the package.

A name counts as used when it is read anywhere in the module, annotations
included.  `__init__.py` is checked too: it loads its exports on first use
rather than importing them.  Coefficients are ints, so `fractions` (which
loads `decimal` and `numbers`) is imported only inside the functions that
return a Fraction, and for annotations under `if TYPE_CHECKING:`.
Denominators are reduced in one place, `qlaurent.lowest_terms`, so `qcore`
binds no gcd of its own.
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


def module_scope_imports(source: str) -> set[str]:
    """Top-level module names imported outside every function body and
    every `if TYPE_CHECKING:` block (which never runs)."""
    names = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_scope_fractions_import(path):
    assert "fractions" not in module_scope_imports(path.read_text())


def test_scope_checker_sees_module_scope_imports():
    src = (
        "import os.path\n"
        "from fractions import Fraction\n"
        "if True:\n    import json\n"
        "class C:\n    import csv\n\n    def f(self):\n        import decimal\n"
        "def g():\n    import numbers\n"
        "if TYPE_CHECKING:\n    import decimal\nelse:\n    import math\n"
    )
    assert module_scope_imports(src) == {"os", "fractions", "json", "csv", "math"}


def test_checker_sees_an_unused_import():
    src = "from math import comb, factorial\nimport os\nprint(factorial(3))\n"
    assert unused_imports(src) == ["line 1: comb", "line 2: os"]
    # imports inside a function, as where a module is loaded only on demand
    used = "def dump(x):\n    import json\n\n    return json.dumps(x)\n"
    assert unused_imports(used) == []
    unread = "def dump(x):\n    import json\n\n    return str(x)\n"
    assert unused_imports(unread) == ["line 2: json"]


def test_the_ring_is_a_leaf():
    # `qring` imports nothing from the package, so the ballot commands that
    # run on the ring alone compile nothing else of it.
    tree = ast.parse((SRC / "qring.py").read_text())
    package = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qballot"))
        or isinstance(node, ast.Import) and any(a.name.startswith("qballot") for a in node.names)
    ]
    assert package == []


def bound_names(source: str) -> set[str]:
    """Every name the module binds anywhere: imports, definitions and
    assignment targets."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_one_reducer():
    binders = {p.name for p in MODULES if "poly_gcd" in bound_names(p.read_text())}
    assert binders == {"qlaurent.py", "analysis.py"}
    assert not {"gcd", "poly_gcd"} & bound_names((SRC / "qcore.py").read_text())


def test_one_home_for_the_suites():
    # Verification suites are built in `analysis`, on the types of `report`.
    binders = {
        p.name for p in MODULES
        if {"SuiteReport", "CheckResult"} & bound_names(p.read_text())
    }
    assert binders == {"report.py", "analysis.py"}


def test_binding_checker_sees_every_binding():
    src = (
        "from math import gcd as g\nimport os.path\n"
        "def poly_gcd(a, b):\n    c = a\n    return c\n"
        "class R:\n    pass\nx, y = 1, 2\nprint(gcd)\n"
    )
    assert bound_names(src) == {"g", "os", "poly_gcd", "c", "R", "x", "y"}
