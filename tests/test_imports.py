"""Every module of the package uses every name it imports, none imports
`fractions` at module scope, and only `qlaurent` and the `analysis` oracle
bind `poly_gcd`; only `report` and `analysis` bind the suite types; the
ring module `qring` imports nothing from the package, and `qcyclo` (with
the `sweep` over it) nothing but the ring.

A name counts as used when it is read anywhere in the module, annotations
included.  `__init__.py` is checked too: it loads its exports on first use
rather than importing them.  Coefficients are ints, so `fractions` (which
loads `decimal` and `numbers`) is imported only inside the functions that
return a Fraction, and for annotations under `if TYPE_CHECKING:`.
Denominators are reduced in one place, `qlaurent.lowest_terms`, so `qcore`
binds no gcd of its own, and the `[d]_q!` sieve `reduce_by_qfactorial` has
three callers: `lowest_terms`, the sweep's `_numerator_report` and
`qcore.qfactorial_coprime`.  `csequence` solves the q-difference equation on
q-binomial coordinates, so it binds none of the kernels that leave them.
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


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, anywhere in it, by their names
    in the package: `qring` for `from .qring import ONE`, `report` for
    `from . import report`, `qballot` for `import qballot`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qballot")):
            if node.module in (None, "qballot"):
                names.update(a.name for a in node.names)
            else:
                names.add(node.module.removeprefix("qballot."))
        elif isinstance(node, ast.Import):
            names.update(a.name.removeprefix("qballot.") for a in node.names
                         if a.name.startswith("qballot"))
    return names


def test_package_import_checker_sees_every_form():
    src = (
        "from .qring import ONE\nfrom . import report\nimport qballot.qcore\n"
        "from qballot.qlaurent import Q\nimport os\nfrom math import comb\n"
        "def f():\n    from .ballot import qballot\n"
    )
    assert package_imports(src) == {"qring", "report", "qcore", "qlaurent", "ballot"}


def test_the_ring_is_a_leaf():
    # `qring` imports nothing from the package, so the ballot commands that
    # run on the ring alone compile nothing else of it.
    assert package_imports((SRC / "qring.py").read_text()) == set()


def test_the_cyclotomic_layer_is_a_leaf_over_the_ring():
    # `qcyclo` holds the q-integers, the [d]_q! sieve and the Newton-Horner
    # core that the conjecture sweep runs; importing nothing of the package
    # but `qring` keeps `qcore` and `qlaurent` out of a cold `conjecture`.
    assert package_imports((SRC / "qcyclo.py").read_text()) == {"qring"}
    assert package_imports((SRC / "sweep.py").read_text()) == {"qring", "qcyclo"}


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


COORDINATE_EXITS = frozenset(
    {"lowest_terms", "poly_gcd", "qbinom_coords", "_subst_laurent", "_hahn_laurent"}
)


def coordinate_exits(source: str) -> list[str]:
    """The reducers and basis conversions a module binds."""
    return sorted(COORDINATE_EXITS & bound_names(source))


def test_csequence_stays_on_coordinates():
    assert coordinate_exits((SRC / "csequence.py").read_text()) == []


def test_coordinate_checker_sees_a_planted_name():
    src = (
        "from .qcore import XPoly, qbinom_coords as qbinom_coords\n"
        "from .qlaurent import lowest_terms\n"
        "def _hahn_laurent(cs):\n    return cs\n"
        "q_int = 1\n"
    )
    assert coordinate_exits(src) == ["_hahn_laurent", "lowest_terms", "qbinom_coords"]


def _calls(source: str, hit) -> set[str]:
    """Names of the functions whose own bodies make a call whose callee
    `hit` accepts; a call outside every function counts under "<module>"."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call) and hit(node.func):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def callers(source: str, method: str) -> set[str]:
    """The functions that call `.method(...)`."""
    return _calls(source, lambda f: isinstance(f, ast.Attribute) and f.attr == method)


def name_callers(source: str, name: str) -> set[str]:
    """The functions that call `name(...)` or `module.name(...)`."""
    return _calls(source, lambda f: name in (getattr(f, "id", None), getattr(f, "attr", None)))


def test_one_reversal_in_ballot():
    # q^s f(m, n | 1/q) is written once, in tilde_f; the reversed q-Catalan
    # polynomial is the table row tilde_f(n, n)
    assert callers((SRC / "ballot.py").read_text(), "subs_q_inverse") == {"tilde_f"}


def test_callers_checker_sees_the_enclosing_function():
    src = (
        "x.f()\n"
        "def a():\n    y.f()\n\n    def b():\n        return z.f\n"
        "class C:\n    def c(self):\n        return [w.f() for w in self]\n"
        "def d():\n    f()\n"
    )
    assert callers(src, "f") == {"<module>", "a", "c"}


def test_three_callers_of_the_sieve():
    # [d]_q! denominators are reduced by the sieve through lowest_terms; the
    # sweep's irreducibility flag and qfactorial_coprime read its
    # denominator directly, and nothing else calls it
    found = {
        f"{p.stem}.{owner}"
        for p in MODULES
        for owner in name_callers(p.read_text(), "reduce_by_qfactorial")
    }
    assert found == {"qlaurent.lowest_terms", "sweep._numerator_report",
                     "qcore.qfactorial_coprime"}


def test_name_callers_sees_bare_and_module_calls():
    src = (
        "f()\n"
        "def a():\n    return mod.f(1)\n"
        "def b():\n    return f\n"
        "def c():\n    return x.g(f)\n"
    )
    assert name_callers(src, "f") == {"<module>", "a"}


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
