"""Numerator extraction, positivity checking, and Newton polytopes.

Clearing the denominator [1]_q...[n-1]_q from C_n(x|q) yields a candidate
polynomial P_n(x, q).  The checker records, per n, whether P_n really is a
polynomial, whether the fraction P_n / [1]_q...[n-1]_q is irreducible, and
whether every coefficient is positive — all as report fields, never
exceptions.  The Newton polytope of P_n (q-exponent horizontal, x-exponent
vertical) is computed with exact integer arithmetic; the upper hull's
slopes, read as dq/dx, come out as the odd integers 1, 3, ..., 2n-3.

``run_suite`` aggregates every invariant in the package into named,
CLI-addressable verification suites; their names are ``report.SUITES``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple

from .ballot import (
    path_cap,
    qballot,
    qballot_paths,
    qcatalan,
    tilde_f,
    tilde_qcatalan,
)
from .csequence import (
    c_difference,
    c_eval_qint,
    c_q1,
    c_q1_at_int,
    c_recurrence,
    c_shifted_theorem1,
    c_theorem1,
    q1_identity_reports,
    theorem1_columns,
)
from .qcore import (
    XPoly,
    gauss_binom,
    q1_specialize,
    q_factorial,
    q_int,
    q_stirling,
    qfactorial_coprime,
    subst_affine,
    to_qbinom_basis,
)
from .qlaurent import (
    ONE,
    Q,
    ZERO,
    ExactnessError,
    QLaurent,
    QRatFunc,
    RF_ONE,
    RF_ZERO,
    poly_gcd,
    ql_divexact,
)
from .report import SUITES, CheckResult, SuiteReport

# -- numerator reports --------------------------------------------------------


class NumeratorReport(NamedTuple):
    """P_n = [1]_q...[n-1]_q * C_n(x|q), column per x-degree.

    When the denominator does not clear, the columns are those of
    [n-1]_q! * C_n over the leftover shared denominator (which the report
    does not carry); the flags are the authority.
    ``coefficient_stats[k]`` is the (min, max) q-exponent of column k.
    """

    n: int
    numerator: tuple[QLaurent, ...]
    denominator: QLaurent
    is_polynomial: bool
    is_irreducible_fraction: bool
    all_coeffs_positive: bool
    coefficient_stats: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return (
            self.is_polynomial
            and self.is_irreducible_fraction
            and self.all_coeffs_positive
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "denominator": self.denominator.to_json(),
            "numerator": [c.to_json() for c in self.numerator],
            "is_polynomial": self.is_polynomial,
            "is_irreducible_fraction": self.is_irreducible_fraction,
            "all_coeffs_positive": self.all_coeffs_positive,
            "coefficient_stats": [list(s) for s in self.coefficient_stats],
        }


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
    return _numerator_report(n, cols, den, g == c.den)


def theorem1_numerator(n: int) -> NumeratorReport:
    """The report on P_n read straight off the Theorem 1 columns of
    [n-1]_q! C_n(x|q), with no reduction to C_n and no multiplying back."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _numerator_report(n, theorem1_columns(n - 1), q_factorial(n - 1), True)


def _numerator_report(
    n: int, cols: tuple[QLaurent, ...], den: QLaurent, cleared: bool
) -> NumeratorReport:
    # cleared: every column is an exact multiple, i.e. den * C_n has no
    # leftover denominator.
    is_poly = cleared and all(col.is_zero or col.min_exp >= 0 for col in cols)

    irreducible = qfactorial_coprime(cols, n - 1)

    # Every term of P_n is positive iff no coefficient of a run is
    # negative: the zeros inside a run are not terms.
    positive = all(min(col.cs, default=0) >= 0 for col in cols)

    stats = tuple(
        (0, 0) if col.is_zero else (col.min_exp, col.max_exp) for col in cols
    )
    return NumeratorReport(
        n=n,
        numerator=cols,
        denominator=den,
        is_polynomial=is_poly,
        is_irreducible_fraction=irreducible,
        all_coeffs_positive=positive,
        coefficient_stats=stats,
    )


def _conjecture_rows(ns: list[int]) -> list[tuple]:
    """For each n of the ascending list ns, the fields of
    theorem1_numerator(n) that the sweep prints: (n, is_polynomial,
    is_irreducible_fraction, all_coeffs_positive, coefficient_stats).

    The n are split over one process per available CPU.  Sorted largest
    first, they are dealt round-robin; this process keeps the first share,
    so its ballot table ends as large as a serial run's, and each forked
    child sends its rows back through a pipe as marshal data.  Any fault (an
    error here, a child that exits nonzero, or rows whose n are not the
    child's share) kills and reaps every child, then reruns every n here,
    so the output, or the first error raised, is the serial run's.  With
    one CPU, no os.fork, or a second live thread (a child could inherit
    one of its locks held), the sweep runs serially.
    """
    import marshal
    import os
    import threading

    def rows(share: list[int]) -> list[tuple]:
        return [
            (r.n, r.is_polynomial, r.is_irreducible_fraction,
             r.all_coeffs_positive, r.coefficient_stats)
            for r in map(theorem1_numerator, share)
        ]

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no affinity mask
        cpus = os.cpu_count() or 1
    k = min(cpus, len(ns))
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return rows(ns)
    shares = [sorted(ns, reverse=True)[i::k] for i in range(k)]
    children: list[tuple[int, int]] = []  # pid, read end of its pipe
    done = None  # all the rows, once every share's have arrived with the right n
    try:
        for share in shares[1:]:
            fd, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(w)
                raise
            if pid == 0:  # the child: send its rows, and never return
                code = 1
                try:
                    os.close(fd)
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps(rows(share)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, fd))
        got = rows(shares[0])
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                got += marshal.loads(pipe.read())
        if [row[0] for row in got] == [n for share in shares for n in share]:
            done = got
    except Exception:
        pass  # below, once no child is left, the serial rerun raises it again
    finally:
        for pid, fd in children:
            os.close(fd)
            if done is None:
                import signal

                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1]:
                done = None
    return rows(ns) if done is None else sorted(done)


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
    if not r.is_polynomial:
        raise ValueError("numerator did not clear its denominator; no polytope")
    pts = sorted(
        {(e, k) for k, col in enumerate(r.numerator) for e, _ in col.items()}
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
    for q, x in p.points:
        out.append(f'<circle cx="{sx(q)}" cy="{sy(x)}" r="3" fill="#1f3552"/>')
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
                closed.eval(QRatFunc(m)), QRatFunc(c_q1_at_int(n, m)),
                ("poly", "binomial"),
            )
    return rep


def _suite_thm1(maxn: int) -> SuiteReport:
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
    rep = q1_identity_reports(maxn)
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
    rep = SuiteReport("andrews", mode="report")
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
    for n, poly, irreducible, positive, _ in _conjecture_rows(
        list(range(2, maxn + 1))
    ):
        ok = poly and irreducible and positive
        detail = None
        if not ok:
            detail = (
                f"polynomial={poly} "
                f"irreducible={irreducible} "
                f"positive={positive}"
            )
        rep.results.append(CheckResult("numerator-flags", n, None, ok, detail))
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
