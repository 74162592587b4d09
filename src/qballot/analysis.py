"""Numerator extraction, positivity checking, and Newton polytopes.

Clearing the denominator [1]_q...[n-1]_q from C_n(x|q) yields a candidate
polynomial P_n(x, q).  The checker records, per n, whether P_n really is a
polynomial, whether the fraction P_n / [1]_q...[n-1]_q is irreducible, and
whether every coefficient is positive — all as report fields, never
exceptions.  The report and the route that reads it straight off the
Theorem 1 columns (`theorem1_numerator`, and the conjecture sweep over it)
live in the leaf `sweep`, which a cold `conjecture` runs alone; `numerator`
here is the oracle that clears the denominator of any C_n.  The Newton
polytope of P_n (q-exponent horizontal, x-exponent vertical) is computed
with exact integer arithmetic; the upper hull's slopes, read as dq/dx, come
out as the odd integers 1, 3, ..., 2n-3.

``run_suite`` aggregates every invariant in the package into named,
CLI-addressable verification suites; their names are ``report.SUITES``.
At module scope this imports only `qring`, `report`, `sweep`, `qcyclo` and
`qlaurent`; each suite imports what it reads of the ballot table
(`ballot`), the `C_n` constructions (`csequence`) and the polynomials in x
(`qcore`) in its own body, so `polytope` and `verify polytope` compile none
of those.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .qcyclo import q_factorial, q_int
from .qlaurent import QRatFunc, RF_ONE, RF_ZERO, poly_gcd, ql_divexact
from .qring import ONE, Q, ZERO, ExactnessError, QLaurent
from .report import SUITES, CheckResult, SuiteReport
from .sweep import (
    NumeratorReport,
    _conjecture_rows,
    _numerator_report,
    theorem1_numerator,
)

if TYPE_CHECKING:  # annotations only: importing fractions loads decimal
    from fractions import Fraction

    from .qcore import XPoly

# -- numerator reports --------------------------------------------------------


def numerator(n: int, c: XPoly) -> NumeratorReport:
    """Clear [1]_q...[n-1]_q from C_n(x|q) and report on the result."""
    if n < 1:
        raise ValueError("n must be >= 1")
    den = q_factorial(n - 1)
    # c.den divides den iff it is their gcd; either way den * C_n is the
    # columns c.nums * (den / g) over the leftover c.den / g.
    g = poly_gcd(den, c.den)
    scale = ql_divexact(den, g)
    cols = tuple(col * scale for col in c.nums)
    return _numerator_report(n, cols, g == c.den)


# -- Newton polytopes ---------------------------------------------------------


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class NewtonPolytope(NamedTuple):
    """Exponent cloud of P_n with its exact convex hull.

    Points are (q-exponent, x-exponent).  ``hull`` walks counterclockwise
    from the lexicographically smallest vertex; ``upper_hull`` runs from
    that vertex to the point of maximal x-exponent along the upper
    boundary, and ``upper_hull_slopes`` are its dq/dx edge slopes.
    """

    points: tuple[tuple[int, int], ...]
    hull: tuple[tuple[int, int], ...]
    lower_hull: tuple[tuple[int, int], ...]
    upper_hull: tuple[tuple[int, int], ...]
    upper_hull_slopes: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "hull": [list(p) for p in self.hull],
            "lower_hull": [list(p) for p in self.lower_hull],
            "upper_hull": [list(p) for p in self.upper_hull],
            "upper_hull_slopes": [str(s) for s in self.upper_hull_slopes],
        }


def newton_polytope(r: NumeratorReport) -> NewtonPolytope:
    """Convex hull of the exponents of P_n, by monotone chain over exact ints.

    Raises ValueError when P_n does not clear its denominator, is zero, or
    has an upper hull edge of constant x-exponent (the one column 1 + q,
    say), since such an edge has no slope dq/dx.
    """
    from fractions import Fraction

    if not r.is_polynomial:
        raise ValueError("numerator did not clear its denominator; no polytope")
    # the (e, k) pairs are distinct, so no set is needed to sort them
    pts = sorted(
        [
            (e, k)
            for k, col in enumerate(r.numerator)
            for e, c in enumerate(col.cs, col.lo)
            if c
        ]
    )
    if not pts:
        raise ValueError("zero polynomial has no polytope")
    if len(pts) == 1:
        p = pts[0]
        return NewtonPolytope((p,), (p,), (p,), (p,), ())
    # Every point of column k lies on the line x = k, so every hull vertex
    # is the lowest or highest q-exponent of its column: chain those alone.
    ends = sorted(
        {
            (e, k)
            for k, col in enumerate(r.numerator)
            if not col.is_zero
            for e in (col.min_exp, col.max_exp)
        }
    )
    lower: list[tuple[int, int]] = []
    for p in ends:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(ends):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = tuple(lower[:-1] + upper[:-1])
    up = tuple(reversed(upper))  # lex-min ... lex-max along the upper boundary
    if any(a[1] == b[1] for a, b in zip(up, up[1:])):
        raise ValueError("upper hull has a level edge, which has no dq/dx slope")
    slopes = tuple(
        Fraction(b[0] - a[0], b[1] - a[1]) for a, b in zip(up, up[1:])
    )
    return NewtonPolytope(tuple(pts), hull, tuple(lower), up, slopes)


def expected_upper_slopes(n: int) -> tuple[Fraction, ...]:
    """The observed slope pattern for P_n: odd integers 1, 3, ..., 2n-3."""
    from fractions import Fraction

    return tuple(Fraction(2 * i + 1) for i in range(n - 1))


def svg_polytope(p: NewtonPolytope, title: str = "") -> str:
    """Standalone SVG: q-exponent horizontal, x-exponent vertical, hull shaded,
    upper hull emphasized.  Output is deterministic."""
    maxq = max(pt[0] for pt in p.points)
    maxx = max(pt[1] for pt in p.points)
    scale, margin = 40, 50
    width = maxq * scale + 2 * margin
    height = max(maxx * scale + 2 * margin, 2 * margin + scale)

    def sx(q: int) -> int:
        return margin + q * scale

    def sy(x: int) -> int:
        return height - margin - x * scale

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- generated by qballot -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{margin}" y="{margin // 2}" font-family="monospace" '
            f'font-size="14">{title}</text>'
        )
    if len(p.hull) >= 3:
        path = " ".join(f"{sx(q)},{sy(x)}" for q, x in p.hull)
        out.append(
            f'<polygon points="{path}" fill="#dce6f2" stroke="#5b7aa6" '
             'stroke-width="1.5"/>'
        )
    elif len(p.hull) == 2:
        (q1, x1), (q2, x2) = p.hull
        out.append(
            f'<line x1="{sx(q1)}" y1="{sy(x1)}" x2="{sx(q2)}" y2="{sy(x2)}" '
            'stroke="#5b7aa6" stroke-width="1.5"/>'
        )
    if len(p.upper_hull) >= 2:
        path = " ".join(f"{sx(q)},{sy(x)}" for q, x in p.upper_hull)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#b03a2e" '
            'stroke-width="2.5"/>'
        )
    # Coordinates inline: two calls per point took 40% of this function at n = 50.
    base = sy(0)
    out += [
        f'<circle cx="{margin + q * scale}" cy="{base - x * scale}" r="3" fill="#1f3552"/>'
        for q, x in p.points
    ]
    # axes with labels
    out.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin // 2}" '
        f'y2="{height - margin}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" '
        f'y2="{margin // 2}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{width - margin}" y="{height - margin // 4}" '
        'font-family="monospace" font-size="12">q-exponent</text>'
    )
    out.append(
        f'<text x="{margin // 4}" y="{margin // 2}" font-family="monospace" '
        'font-size="12">x-exponent</text>'
    )
    for q in range(maxq + 1):
        out.append(
            f'<text x="{sx(q) - 4}" y="{height - margin + 16}" '
            f'font-family="monospace" font-size="10">{q}</text>'
        )
    for x in range(maxx + 1):
        out.append(
            f'<text x="{margin - 18}" y="{sy(x) + 4}" '
            f'font-family="monospace" font-size="10">{x}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- named verification suites ------------------------------------------------

def _suite_prop1(maxn: int) -> SuiteReport:
    from .ballot import path_cap, qballot_paths
    from .csequence import c_eval_qint

    rep = SuiteReport("prop1")
    cap = path_cap()
    for n in range(maxn + 1):
        for k in range(maxn + 1):
            try:
                val = c_eval_qint(n, k)  # internally cross-checked
                ok, detail = True, None
            except ExactnessError as exc:
                ok, detail, val = False, str(exc), None
            rep.results.append(CheckResult("qint-evaluation", n, k, ok, detail))
            if val is not None and (k + n) + n <= cap:
                oracle = qballot_paths(k + n, n).subs_q_inverse().shifted(
                    k * n + n * (n + 1) // 2
                )
                rep.expect("qint-path-oracle", n, k, val, oracle, ("closed", "paths"))
    return rep


def _suite_corollary(maxn: int) -> SuiteReport:
    from .ballot import tilde_qcatalan
    from .csequence import c_theorem1

    rep = SuiteReport("corollary")
    for n in range(1, maxn + 1):
        rep.expect(
            "value-at-0", n + 1, None,
            c_theorem1(n).eval(RF_ZERO), c_theorem1(n - 1).eval(RF_ONE),
            ("C(0)", "prev(1)"),
        )
        rep.expect(
            "value-at-1", n + 1, None,
            c_theorem1(n).eval(RF_ONE), QRatFunc(tilde_qcatalan(n + 1)),
            ("C(1)", "reversed-catalan"),
        )
    return rep


def _suite_prop2(maxn: int) -> SuiteReport:
    from .csequence import c_q1, c_q1_at_int, c_theorem1
    from .qcore import q1_specialize

    rep = SuiteReport("prop2")
    for n in range(maxn + 1):
        closed = c_q1(n)
        rep.expect(
            "q1-closed-form", n + 1, None,
            closed, q1_specialize(c_theorem1(n)), ("closed", "collapsed"),
        )
        for m in range(6):
            rep.expect(
                "q1-binomial-points", n + 1, m,
                closed.eval(QRatFunc(m)), c_q1_at_int(n, m),
                ("poly", "binomial"),
            )
    return rep


def _suite_thm1(maxn: int) -> SuiteReport:
    from .csequence import c_difference, c_shifted_theorem1, c_theorem1
    from .qcore import subst_affine

    rep = SuiteReport("thm1")
    fam = c_difference(max(maxn, 1))
    for n in range(1, maxn + 1):
        ok = fam.poly(n) == c_theorem1(n - 1)
        rep.results.append(
            CheckResult("expansion-vs-difference", n, None, ok,
                        None if ok else "polynomials differ")
        )
        rep.expect(
            "shifted-expansion", n, None,
            c_shifted_theorem1(n), subst_affine(c_theorem1(n - 1), Q, 1),
            ("expansion", "direct"),
        )
    return rep


def _suite_thm2(maxn: int) -> SuiteReport:
    from .csequence import c_recurrence, c_theorem1

    rep = SuiteReport("thm2")
    fam = c_recurrence(max(maxn, 1))
    for n in range(1, maxn + 1):
        ok = fam.poly(n) == c_theorem1(n - 1)
        rep.results.append(
            CheckResult("recurrence-vs-expansion", n, None, ok,
                        None if ok else "polynomials differ")
        )
    return rep


def _suite_key_identities(maxn: int) -> SuiteReport:
    from .ballot import qballot, tilde_f
    from .qcore import gauss_binom

    rep = SuiteReport("key_identities")
    for n in range(maxn + 1):
        for k in range(n + 1):
            lhs = qballot(n + k, n)
            rhs = ZERO
            for j in range(k + 1):
                rhs = rhs + (
                    qballot(n + j, n - j) * gauss_binom(k, j)
                ).shifted((n - j) * (k - j) + j)
            rep.expect("interpolation-identity", n, k, lhs, rhs)
            if n >= 1:
                lhs = qballot(k + n, n - 1)
                rhs = ZERO
                for j in range(k + 1):
                    if n - j - 1 < 0:  # no paths end at negative height
                        continue
                    rhs = rhs + (
                        qballot(n + j, n - j - 1) * gauss_binom(k, j)
                    ).shifted((n - j - 1) * (k - j) + j)
                rep.expect("shifted-interpolation-identity", n, k, lhs, rhs)
    for m in range(1, maxn + 1):
        for n in range(1, m + 1):
            lhs = q_int(n) * tilde_f(m, n)
            rhs = q_int(n + m - 1) * tilde_f(m - 1, n - 1)
            for j in range(n - 1):
                rhs = rhs + (
                    q_int(n - j - 1) * tilde_f(j, j) * tilde_f(m - j - 1, n - j - 1)
                ).shifted(2 * j + 1)
            rep.expect("pointed-path-identity", m, n, lhs, rhs)
    return rep


def _catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _suite_q1_identities(maxn: int) -> SuiteReport:
    from .csequence import c_q1
    from .qcore import XPoly, subst_affine

    # Both q = 1 collapses of the closed-form expansions, C_{n+1}(x|1) and
    # C_n(x+1|1), against sums of the plain binomials x(x-1)...(x-j+1)/j!
    # weighted by ballot numbers; each binomial is the one before it times
    # (x-j+1)/j.  Then the Catalan recurrence.
    rep = SuiteReport("q1_identities")
    binom_x = [XPoly.const(RF_ONE)]
    for j in range(maxn):
        binom_x.append(binom_x[-1] * XPoly([-j, 1]) * QRatFunc(1, j + 1))
    for n in range(1, maxn + 1):
        lhs_c = c_q1(n)
        rhs_c = XPoly.zero()
        for j in range(n + 1):
            w = QRatFunc((2 * j + 1) * comb(2 * n, n - j), n + j + 1)
            rhs_c = rhs_c + binom_x[j] * w
        rep.expect("q1-interpolation", n, None, lhs_c, rhs_c)
        lhs_d = subst_affine(c_q1(n - 1), RF_ONE, RF_ONE)
        rhs_d = XPoly.zero()
        for j in range(n):
            w = QRatFunc((2 * j + 2) * comb(2 * n - 1, n - j - 1), n + j + 1)
            rhs_d = rhs_d + binom_x[j] * w
        rep.expect("q1-shifted", n, None, lhs_d, rhs_d)
    for n in range(1, maxn + 1):
        lhs = n * _catalan_number(n + 1)
        rhs = 2 * n * _catalan_number(n)
        for j in range(n - 1):
            rhs += (n - j - 1) * _catalan_number(j) * _catalan_number(n - j)
        rep.expect("catalan-recurrence", n, None, lhs, rhs)
    return rep


# -- convolution identities ---------------------------------------------------


def verify_carlitz_convolution(maxn: int) -> SuiteReport:
    """Check both convolution recurrences for C_{n+1} for all n < maxn."""
    from .ballot import qcatalan, tilde_qcatalan

    rep = SuiteReport("carlitz")
    for n in range(maxn):
        lhs = qcatalan(n + 1)
        rhs = ZERO
        for i in range(n + 1):
            rhs = rhs + (qcatalan(i) * qcatalan(n - i)).shifted((i + 1) * (n - i))
        rep.expect("convolution-area", n + 1, None, lhs, rhs)
        lhs_t = tilde_qcatalan(n + 1)
        rhs_t = ZERO
        for i in range(n + 1):
            rhs_t = rhs_t + (tilde_qcatalan(i) * tilde_qcatalan(n - i)).shifted(i)
        rep.expect("convolution-reversed", n + 1, None, lhs_t, rhs_t)
    return rep


# -- the hypergeometric-recurrence transcription ------------------------------

ANDREWS_READINGS = (
    "literal",
    "reversed-catalan",
    "inverse-catalan",
    "lowered-exponent",
)


def _andrews_rhs(n: int, catalan, exp_drop: int = 0, tail_power: int = 1) -> QLaurent:
    from .qcore import gauss_binom

    # q^n [2n, n] / [n+1] is an exact polynomial division (the classical
    # q-Catalan), so a genuine Laurent polynomial always comes out.
    head = ql_divexact(gauss_binom(2 * n, n).shifted(n), q_int(n + 1))
    tail = ZERO
    for j in range(n):
        term = (ONE - QLaurent.monomial(n - j)) * gauss_binom(2 * j + 1, j)
        term = term.shifted((n + 1 - j) * j - exp_drop * j)
        tail = tail + term * catalan(n - 1 - j)
    return head + tail.shifted(tail_power)


def andrews_check(maxn: int, readings: Iterable[str] = ("literal",)) -> SuiteReport:
    """Compare C_n(q) against the transcribed hypergeometric recurrence.

    The literal transcription does not hold (n = 1 already gives 2q - q^2
    against C_1 = 1), so this suite only reports; it never repairs the
    formula.  Alternate readings can be requested explicitly: two swap the
    Catalan normalization, and "lowered-exponent" drops the stray q^(j+1)
    from each summand (that variant does hold; see README).
    """
    from .ballot import qcatalan, tilde_qcatalan

    rep = SuiteReport("andrews")
    for reading in readings:
        if reading not in ANDREWS_READINGS:
            raise ValueError(f"unknown reading {reading!r}; choose from {ANDREWS_READINGS}")
        for n in range(1, maxn + 1):
            if reading == "literal":
                lhs = qcatalan(n)
                rhs = _andrews_rhs(n, qcatalan)
            elif reading == "reversed-catalan":
                lhs = tilde_qcatalan(n)
                rhs = _andrews_rhs(n, tilde_qcatalan)
            elif reading == "inverse-catalan":
                # 1/q-reversed factors inside the sum only
                lhs = qcatalan(n)
                rhs = _andrews_rhs(n, lambda m: qcatalan(m).subs_q_inverse())
            else:  # lowered-exponent: q^((n-j)j) on the summand, no overall q
                lhs = qcatalan(n)
                rhs = _andrews_rhs(n, qcatalan, exp_drop=1, tail_power=0)
            rep.expect(f"andrews-{reading}", n, None, lhs, rhs, asserted=False)
    return rep


def _suite_stirling(maxn: int) -> SuiteReport:
    from .qcore import XPoly, q_stirling, to_qbinom_basis

    rep = SuiteReport("stirling")
    for n in range(maxn + 1):
        e = to_qbinom_basis(XPoly([0] * n + [1]))
        for k in range(n + 1):
            rep.expect(
                "stirling-difference", n, k,
                e[k] if k < len(e) else RF_ZERO,
                QRatFunc(q_factorial(k) * q_stirling(n, k)),
                ("basis", "stirling"),
            )
    return rep


def _suite_conjecture(maxn: int) -> SuiteReport:
    rep = SuiteReport("conjecture")
    for r in _conjecture_rows(list(range(2, maxn + 1))):
        rep.results.append(
            CheckResult("numerator-flags", r.n, None, r.ok, None if r.ok else r.failure)
        )
    return rep


def _suite_polytope(maxn: int) -> SuiteReport:
    rep = SuiteReport("polytope")
    for n in range(2, maxn + 1):
        p = newton_polytope(theorem1_numerator(n))
        want = expected_upper_slopes(n)
        ok = p.upper_hull_slopes == want
        detail = f"slopes={[str(s) for s in p.upper_hull_slopes]}"
        if not ok:
            detail += f" expected={[str(s) for s in want]}"
        # the odd-integer pattern is asserted at small n and recorded
        # as an observation beyond that
        rep.results.append(
            CheckResult("upper-slopes", n, None, ok, detail, asserted=n <= 10)
        )
    return rep


# Keyed in the order of SUITES, the names the CLI offers.
_SUITE_FNS = {
    "prop1": _suite_prop1,
    "corollary": _suite_corollary,
    "prop2": _suite_prop2,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "key_identities": _suite_key_identities,
    "q1_identities": _suite_q1_identities,
    "carlitz": verify_carlitz_convolution,
    "andrews": andrews_check,
    "stirling": _suite_stirling,
    "conjecture": _suite_conjecture,
    "polytope": _suite_polytope,
}


def run_suite(name: str, maxn: int) -> SuiteReport:
    """Run one named verification suite up to maxn."""
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if maxn < 0:
        raise ValueError("maxn must be >= 0")
    rep = _SUITE_FNS[name](maxn)
    # A suite with nothing to check would otherwise report "0/0 ok (pass)".
    if not rep.results:
        raise ValueError(f"suite {name} runs no checks at --max-n {maxn}")
    return rep
