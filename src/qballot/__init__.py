"""Exact arithmetic for q-ballot numbers, q-Catalan numbers, and the
interpolating polynomial family C_n(x|q).

The names below are the documented API (see README); everything else is
importable from its own module.  The function ballot() is not re-exported
here, so that `qballot.ballot` stays the submodule."""

from .analysis import (
    SUITES,
    newton_polytope,
    numerator,
    run_suite,
    svg_polytope,
    theorem1_numerator,
)
from .ballot import andrews_check, qballot, qcatalan
from .csequence import (
    c_family,
    c_theorem1,
    format_qbinom,
    theorem1_columns,
    theorem1_qbinom_coeffs,
)
from .qcore import XPoly, from_qbinom_basis, to_qbinom_basis
from .qlaurent import ExactnessError, Q, QLaurent, QRatFunc

__version__ = "0.1.0"

__all__ = [
    "ExactnessError",
    "Q",
    "QLaurent",
    "QRatFunc",
    "SUITES",
    "XPoly",
    "andrews_check",
    "c_family",
    "c_theorem1",
    "format_qbinom",
    "from_qbinom_basis",
    "newton_polytope",
    "numerator",
    "qballot",
    "qcatalan",
    "run_suite",
    "svg_polytope",
    "theorem1_columns",
    "theorem1_numerator",
    "theorem1_qbinom_coeffs",
    "to_qbinom_basis",
]
