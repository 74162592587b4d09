"""The three C_n constructions share no recurrence.

`c_difference`, `c_recurrence` and `c_theorem1` are cross-checks of one
another, so each may read only its own route.  The difference step and
the family builder read nothing of the ballot table or of Theorem 1; the
recurrence step reads nothing of Theorem 1 and not the difference step;
and `c_theorem1` reads neither step.  A function counts as reading what
every `csequence` function it reads, in turn, reads.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qballot" / "csequence.py"
THEOREM1 = {"tilde_f", "tilde_qcatalan", "qballot", "theorem1_columns", "theorem1_qbinom_coeffs"}
FORBIDDEN = {
    "_difference_step": THEOREM1 | {"_recurrence_step"},
    "_grow": THEOREM1 | {"_recurrence_step"},
    "_recurrence_step": {"theorem1_columns", "theorem1_qbinom_coeffs", "tilde_f",
                         "_difference_step"},
    "c_theorem1": {"_difference_step", "_recurrence_step", "_grow"},
}


def reads(source: str) -> dict[str, set[str]]:
    """The names each module-level function reads, as bare names or
    attributes."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                or isinstance(sub, ast.Attribute)
            }
    return out


def forbidden_reads(source: str) -> list[str]:
    """Forbidden names read by each guarded function or by the module
    functions it reaches."""
    table = reads(source)
    found = []
    for root, banned in FORBIDDEN.items():
        seen, todo = set(), [root]
        while todo:
            fn = todo.pop()
            if fn in seen or fn not in table:
                continue
            seen.add(fn)
            found += [f"{root}: {name}" for name in table[fn] & banned]
            todo += table[fn]
    return sorted(found)


def test_constructions_found():
    assert set(reads(SOURCE.read_text())) >= set(FORBIDDEN) | {"c_difference", "c_recurrence"}


def test_constructions_stay_independent():
    assert forbidden_reads(SOURCE.read_text()) == []


def test_checker_sees_a_planted_name():
    src = (
        "def _difference_step(coords):\n    return _helper(coords)\n"
        "def _helper(coords):\n    return mod.tilde_f(1, 1)\n"
        "def _grow(step, n):\n    return step\n"
        "def c_theorem1(n):\n    return _recurrence_step([n])\n"
        "def unrelated():\n    return theorem1_columns(3)\n"
    )
    assert forbidden_reads(src) == [
        "_difference_step: tilde_f", "c_theorem1: _recurrence_step"]
