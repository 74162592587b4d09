"""The lattice-path oracles share nothing with the recurrence they check.

`qballot_paths` and `tilde_f_paths` are the independent side of the
Prop. 1 and path-statistic checks, so their bodies, and the walk they
share, may not read the ballot table, its packed row kernel, the
recurrence or the q-integer and Gaussian-binomial helpers.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qballot" / "ballot.py"
ORACLES = ("qballot_paths", "tilde_f_paths", "_path_areas")
FORBIDDEN = frozenset({
    "TABLE", "BallotTable", "_next_row", "qballot", "q_int", "gauss_binom",
    "_packed_step", "_pack_row", "_digits", "_words",
})


def forbidden_reads(source: str) -> list[str]:
    """Forbidden names read, as bare names or attributes, in the oracles."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in ORACLES:
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in FORBIDDEN:
                    found.append(f"{node.name}: {name}")
    return sorted(found)


def test_oracles_found():
    names = {n.name for n in ast.parse(SOURCE.read_text()).body if isinstance(n, ast.FunctionDef)}
    assert names >= set(ORACLES)


def test_oracles_read_no_recurrence():
    assert forbidden_reads(SOURCE.read_text()) == []


def test_checker_sees_a_planted_name():
    src = (
        "def qballot_paths(n, k):\n    return TABLE.get(n, k)\n"
        "def _path_areas(n, k, east):\n    return mod._next_row(None, None, k)\n"
        "def unrelated():\n    return qballot(1, 1)\n"
    )
    assert forbidden_reads(src) == ["_path_areas: _next_row", "qballot_paths: TABLE"]
