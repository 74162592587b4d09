"""Differential checks of the polynomial kernel against sympy.

sympy shares no code with `qlaurent`, `qcyclo` or `qcore`, so each check below
computes the same object twice, once in each: gcds, exact division (with
its refusal on a remainder), cyclotomic and Gaussian polynomials, and the
monomial coefficients of C_n(x|q) for n <= 8, the last by Lagrange
interpolation over Q(q) through the paper's values C_{n+1}([k]_q) =
tilde_f(k+n, n), with tilde_f taken from the ballot recurrence worked in
sympy.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qballot.csequence import c_family
from qballot.qcore import gauss_binom
from qballot.qcyclo import _divexact_dense, cyclotomic
from qballot.qlaurent import RF_ZERO, QRatFunc, poly_gcd
from qballot.qring import QLaurent
from qballot.report import METHODS

sympy = pytest.importorskip("sympy")
q, x = sympy.symbols("q x")
QQ = sympy.QQ
FIELD = QQ.frac_field(q)

coeffs = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def runs(draw, max_len=6):
    """A coefficient run with nonzero ends, negative coefficients included."""
    cs = draw(st.lists(coeffs, min_size=1, max_size=max_len))
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or -1
    return cs


def poly(cs):
    """The polynomial sum cs[i] q^i in sympy."""
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], q, domain=QQ
    )


def rational(cs, lo=0) -> QRatFunc:
    """sum cs[i] q^(lo+i) for rational cs, summed in QRatFunc arithmetic: an
    integer Laurent run over an integer."""
    return sum((QRatFunc(c) * QLaurent.monomial(lo + i) for i, c in enumerate(cs)), RF_ZERO)


def integer_run(cs, lo=0) -> QLaurent:
    """The integer numerator of `rational(cs, lo)`; its denominator is a
    positive integer."""
    r = rational(cs, lo)
    assert r.den.lo == 0 and len(r.den.cs) == 1 and r.den.cs[0] > 0
    return r.num


def laurent(p: QLaurent):
    return sum(sympy.Rational(c.numerator, c.denominator) * q**e for e, c in p.items())


@given(runs(), runs(), runs(max_len=4), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_poly_gcd_matches_sympy(a, b, common, lo_a, lo_b):
    # a common factor makes a nontrivial gcd likely
    a = (poly(a) * poly(common)).all_coeffs()[::-1]
    b = (poly(b) * poly(common)).all_coeffs()[::-1]
    pa = integer_run([Fraction(int(c.p), int(c.q)) for c in a], lo_a)
    pb = integer_run([Fraction(int(c.p), int(c.q)) for c in b], lo_b)
    g = poly_gcd(pa, pb)
    assert g.lo == 0 and g.cs[-1] > 0 and g.content() == 1
    want = poly(pa.cs).gcd(poly(pb.cs))  # monic over Q; q divides neither run
    assert poly(g.cs).monic() == want


@given(runs())
@settings(max_examples=40, deadline=None)
def test_poly_gcd_with_zero_is_the_primitive_part(a):
    g = poly_gcd(integer_run(a, 2), QLaurent({}))
    assert poly(g.cs).monic() == poly(a).monic()
    assert g.cs[-1] > 0 and g.content() == 1


@given(runs(), runs(max_len=4), st.booleans())
@settings(max_examples=200, deadline=None)
def test_divexact_dense_matches_sympy_div(a, b, exact):
    if exact:
        a = [Fraction(int(c.p), int(c.q)) for c in (poly(a) * poly(b)).all_coeffs()[::-1]]
    # In Q(q): the quotient is in Q[q], an integer run over a constant
    # denominator, iff sympy leaves no remainder.
    quot, rem = sympy.div(poly(a), poly(b))
    ratio = rational(a) / rational(b)
    in_q_poly = len(ratio.den.cs) == 1
    assert in_q_poly == rem.is_zero
    if rem.is_zero:
        assert laurent(ratio.num) / ratio.den.cs[0] == quot.as_expr()
    # Over Z[q], on the integer runs: a quotient exists iff sympy's has
    # integer coefficients.
    ia, ib = integer_run(a).cs, integer_run(b).cs
    quot, rem = sympy.div(poly(ia), poly(ib))
    got = _divexact_dense(ia, ib)
    if rem.is_zero and all(c.is_integer for c in quot.all_coeffs()):
        assert got is not None and poly(got) == quot
    else:
        assert got is None
    if exact:
        assert in_q_poly


@pytest.mark.parametrize("e", range(1, 31))
def test_cyclotomic_matches_sympy(e):
    assert laurent(cyclotomic(e)) == sympy.cyclotomic_poly(e, q)


@given(st.integers(0, 14), st.integers(-1, 15))
@settings(max_examples=60, deadline=None)
def test_gauss_binom_matches_the_product_formula(n, k):
    if 0 <= k <= n:
        want = sympy.prod((1 - q ** (n - i)) / (1 - q ** (i + 1)) for i in range(k))
    else:
        want = 0
    assert sympy.expand(laurent(gauss_binom(n, k)) - sympy.cancel(want)) == 0


ZQ = sympy.ZZ[q]  # Z[q], whose elements multiply without gcds
(QZ,) = ZQ.gens


def _ballot_table(m: int) -> dict:
    """f(n, k | q) for n <= m over Z[q]: f(n,k) = q f(n,k-1) + q^k f(n-1,k)."""
    f = {}
    for n in range(m + 1):
        f[n, 0] = ZQ.one
        for k in range(1, n + 1):
            f[n, k] = QZ * f[n, k - 1] + QZ**k * f.get((n - 1, k), ZQ.zero)
    return f


def _c_by_interpolation(n: int, f: dict) -> sympy.Poly:
    """C_{n+1}(x|q), degree n in x, through its n+1 values at x = [k]_q: the
    Lagrange sum over Z[q] on the common denominator prod_k d_k, with x-
    coefficients listed lowest first, divided once each at the end."""

    def tilde_f(m, j):  # q^((m-j)j + C(j+1,2)) f(m, j | 1/q)
        shift = (m - j) * j + j * (j + 1) // 2
        return sum((c * QZ ** (shift - e) for (e,), c in f[m, j].terms()), ZQ.zero)

    nodes = [sum((QZ**i for i in range(k)), ZQ.zero) for k in range(n + 1)]
    dens = [sympy.prod([xk - xi for xi in nodes if xi != xk], ZQ.one) for xk in nodes]
    total = [ZQ.zero] * (n + 1)
    for k, xk in enumerate(nodes):
        term = [tilde_f(k + n, n) * sympy.prod(dens[:k] + dens[k + 1 :], ZQ.one)]
        for xi in nodes:
            if xi != xk:  # term *= (x - xi)
                term = [a - xi * b for a, b in zip([ZQ.zero] + term, term + [ZQ.zero])]
        total = [a + b for a, b in zip(total, term)]
    den = FIELD.convert(sympy.prod(dens, ZQ.one), ZQ)
    coeffs = [FIELD.convert(c, ZQ) / den for c in reversed(total)]
    return sympy.Poly.from_list(coeffs, x, domain=FIELD)


NMAX = 8


@cache
def _sympy_family() -> tuple:
    f = _ballot_table(2 * NMAX)
    return tuple(_c_by_interpolation(n - 1, f) for n in range(1, NMAX + 1))


@pytest.mark.parametrize("method", METHODS)
def test_c_monomial_coefficients_match_sympy_interpolation(method):
    family = c_family(method, NMAX)
    for n, want in enumerate(_sympy_family(), 1):
        c = family.poly(n)
        den = FIELD.from_sympy(laurent(c.den))
        ours = [FIELD.from_sympy(laurent(col)) / den for col in reversed(c.nums)]
        assert sympy.Poly.from_list(ours, x, domain=FIELD) == want, n
