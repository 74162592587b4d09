"""Exact arithmetic for q-ballot numbers, q-Catalan numbers, and the
interpolating polynomial family C_n(x|q).

The names in __all__ are the documented API (see README); everything else is
importable from its own module.  Importing the package loads none of its
modules: each name, and each submodule (``qballot.qcore``, ...), is loaded
on first use (PEP 562), so a process pays only for the modules it runs.  The
function ballot() is not re-exported here, so that `qballot.ballot` stays
the submodule."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each documented name -> the submodule that defines it.
_HOMES = {
    "ExactnessError": "qlaurent",
    "Q": "qlaurent",
    "QLaurent": "qlaurent",
    "QRatFunc": "qlaurent",
    "SUITES": "report",
    "XPoly": "qcore",
    "andrews_check": "analysis",
    "c_family": "csequence",
    "c_theorem1": "csequence",
    "format_qbinom": "csequence",
    "from_qbinom_basis": "qcore",
    "newton_polytope": "analysis",
    "numerator": "analysis",
    "qballot": "ballot",
    "qcatalan": "ballot",
    "run_suite": "analysis",
    "svg_polytope": "analysis",
    "theorem1_columns": "csequence",
    "theorem1_numerator": "analysis",
    "theorem1_qbinom_coeffs": "csequence",
    "to_qbinom_basis": "qcore",
}

__all__ = sorted(_HOMES)

_SUBMODULES = ("analysis", "ballot", "cli", "csequence", "qcore", "qlaurent", "report")


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
