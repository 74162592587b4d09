"""Polynomials in x over Q(q) and the q-difference machinery.

The central operator is the Hahn difference

    delta(f)(x) = (f(1 + q x) - f(x)) / (1 + (q - 1) x),

which lowers the q-binomial-coefficient basis by one step:
delta({x choose k}_q) = {x choose k-1}_q.  Expanding a polynomial in that
basis therefore amounts to iterating delta and reading off values at 0,
and the inverse expansion is a Newton-form evaluation.  Both directions
are exact; any non-exact division here indicates a programming error and
raises ExactnessError.

Two distinct q-binomial families live here and must not be confused:

* gauss_binom(n, k): the classical Gaussian polynomial in Z[q];
* qbinom_x(k): the polynomial {x choose k}_q in x over Q(q), which
  interpolates the first family via {[n]_q choose k}_q =
  q^(k(k-1)/2) * gauss_binom(n, k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, starmap, zip_longest
from operator import sub
from typing import Iterable, Sequence, Union

from .qlaurent import (
    ONE,
    Q,
    ZERO,
    ExactnessError,
    QLaurent,
    QRatFunc,
    RF_ONE,
    RF_ZERO,
    _coerce_ratfunc,
    _dense_frac,
    _divexact_dense,
    poly_gcd,
    ql_divexact,
)

ScalarLike = Union[int, Fraction, QLaurent, QRatFunc]


# -- q-integers, factorials, binomials ----------------------------------------


@cache
def q_int(n: int) -> QLaurent:
    """[n]_q = (q^n - 1)/(q - 1); for n < 0 this is -q^n [(-n)]_q."""
    if n == 0:
        return ZERO
    if n < 0:
        return QLaurent({e: -1 for e in range(n, 0)})
    return QLaurent({e: 1 for e in range(n)})


@cache
def q_factorial(n: int) -> QLaurent:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    if n <= 1:
        return ONE
    return QLaurent(enumerate(_qint_mul_dense(_dense_frac(q_factorial(n - 1)), n)))


@cache
def gauss_binom(n: int, k: int) -> QLaurent:
    """The Gaussian binomial [n, k]_q as a polynomial in Z[q]."""
    if n < 0:
        raise ValueError("gauss_binom needs n >= 0")
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    # Pascal recurrence keeps everything in Z[q], no division required.
    return gauss_binom(n - 1, k - 1) + gauss_binom(n - 1, k).shifted(k)


@cache
def cyclotomic(d: int) -> QLaurent:
    """The d-th cyclotomic polynomial, via (q^d - 1) / prod of lower ones."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = Q**d - ONE
    for e in range(1, d):
        if d % e == 0:
            num = ql_divexact(num, cyclotomic(e))
    return num


@cache
def _cyclo_dense(d: int) -> tuple[int, ...]:
    return tuple(_dense_frac(cyclotomic(d)))


@cache
def _cyclo_at2(d: int) -> int:
    return int(cyclotomic(d).eval_at(2))


# -- polynomials in x over Q(q) -----------------------------------------------


class XPoly:
    """A polynomial in x with coefficients in Q(q), stored densely by x-degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = []
        for c in coeffs:
            r = _coerce_ratfunc(c)
            if r is NotImplemented:
                raise TypeError(f"not a Q(q) scalar: {c!r}")
            cs.append(r)
        while cs and cs[-1].is_zero:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple[QRatFunc, ...]) -> "XPoly":
        p = cls.__new__(cls)
        p._coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "XPoly":
        return _XP_ZERO

    @classmethod
    def const(cls, c: ScalarLike) -> "XPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "XPoly":
        return _XP_X

    # -- queries ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[QRatFunc, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coeff(self, k: int) -> QRatFunc:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return RF_ZERO

    @property
    def leading(self) -> QRatFunc:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: object) -> "XPoly":
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        while out and out[-1].is_zero:
            out.pop()
        return XPoly._raw(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly._raw(tuple(-c for c in self._coeffs))

    def __sub__(self, other: object) -> "XPoly":
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "XPoly":
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "XPoly":
        if isinstance(other, XPoly):
            a, b = self._coeffs, other._coeffs
            if not a or not b:
                return _XP_ZERO
            out = [RF_ZERO] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca.is_zero:
                    continue
                for j, cb in enumerate(b):
                    out[i + j] = out[i + j] + ca * cb
            while out and out[-1].is_zero:
                out.pop()
            return XPoly._raw(tuple(out))
        s = _coerce_ratfunc(other)
        if s is NotImplemented:
            return NotImplemented
        if s.is_zero:
            return _XP_ZERO
        return XPoly._raw(tuple(c * s for c in self._coeffs))

    __rmul__ = __mul__

    def eval(self, point: ScalarLike) -> QRatFunc:
        """Evaluate at x = point in Q(q): the constant term of f(0 x + point)."""
        return subst_affine(self, 0, point).coeff(0)

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c.is_zero:
                continue
            xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            cs = str(c)
            if xs:
                if cs == "1":
                    cs = ""
                elif cs == "-1":
                    cs = "-"
                elif len(c.num) > 1 or not c.is_polynomial:
                    cs = f"({cs})"
            parts.append(cs + xs if xs else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"XPoly({self})"


_XP_ZERO = XPoly._raw(())
_XP_X = XPoly._raw((RF_ZERO, RF_ONE))


def _coerce_xpoly(x: object):
    if isinstance(x, XPoly):
        return x
    r = _coerce_ratfunc(x)
    if r is NotImplemented:
        return NotImplemented
    return XPoly._raw(()) if r.is_zero else XPoly._raw((r,))


# -- the q-binomial basis ----------------------------------------------------


@cache
def qbinom_x(k: int) -> XPoly:
    """{x choose k}_q = (x - [0]_q)(x - [1]_q)...(x - [k-1]_q) / [k]_q!."""
    if k < 0:
        raise ValueError("qbinom_x needs k >= 0")
    if k == 0:
        return XPoly.const(1)
    return qbinom_x(k - 1) * XPoly([-q_int(k - 1), 1]) * QRatFunc(ONE, q_int(k))


# -- q-difference operators ---------------------------------------------------
#
# Every operation on an XPoly below clears denominators once
# (_clear_denominators), computes on Laurent numerators over that one shared
# denominator (_subst_laurent, _hahn_laurent), and builds one reduced QRatFunc
# per output coefficient at the end.


def _clear_denominators(cs: Sequence[QRatFunc]) -> tuple[list[QLaurent], QLaurent]:
    """Write cs[k] = nums[k] / den with every nums[k] Laurent and one shared den."""
    den = ONE
    for c in cs:
        if c.den != ONE and c.den != den:
            g = poly_gcd(den, c.den)
            den = den * ql_divexact(c.den, g)
    nums = []
    for c in cs:
        scale = den if c.den == ONE else ql_divexact(den, c.den)
        nums.append(c.num if scale == ONE else c.num * scale)
    return nums, den


def _subst_laurent(
    cs: Sequence[QLaurent], a: QLaurent, b: QLaurent, d: QLaurent = ONE
) -> list[QLaurent]:
    """x-columns of sum_k cs[k] (a x + b)^k d^(n-k), n = len(cs) - 1.

    Horner's rule homogenised by d: with f = sum_k cs[k] x^k this is
    d^n f((a x + b) / d), so rational a and b cost one division at the end
    instead of a gcd at every step.  Returns n + 1 columns.
    """
    acc = [cs[-1]]
    dk = ONE
    for c in reversed(cs[:-1]):
        # acc * (a x + b) + c d^(n-k)
        dk = dk * d
        nxt = [b * t for t in acc] + [ZERO]
        for i, t in enumerate(acc):
            nxt[i + 1] = nxt[i + 1] + a * t
        nxt[0] = nxt[0] + c * dk
        acc = nxt
    return acc


def subst_affine(f: XPoly, a: ScalarLike, b: ScalarLike) -> XPoly:
    """f(a x + b)."""
    ra = _coerce_ratfunc(a)
    rb = _coerce_ratfunc(b)
    if ra is NotImplemented or rb is NotImplemented:
        raise TypeError("affine substitution needs Q(q) scalars")
    if f.degree <= 0:
        return f
    nums, den = _clear_denominators(f.coeffs)
    (an, bn), d = _clear_denominators((ra, rb))
    scale = den * d**f.degree
    return XPoly(QRatFunc(c, scale) for c in _subst_laurent(nums, an, bn, d))


def _hahn_laurent(cs: Sequence[QLaurent]) -> list[QLaurent]:
    """One Hahn step on a dense x-coefficient list over Q[q, q^-1]."""
    d = len(cs) - 1
    num = [s - c for s, c in zip(_subst_laurent(cs, Q, ONE), cs)]
    # Divide from the constant term up: the divisor 1 + (q-1)x is a unit
    # at x = 0, so the quotient is determined term by term.
    qm1 = Q - ONE
    g = [num[0]]
    for k in range(1, d):
        g.append(num[k] - qm1 * g[k - 1])
    if (num[d] - qm1 * g[d - 1]) if d >= 1 else num[0]:
        raise ExactnessError("Hahn difference left a remainder; internal invariant broken")
    return g


def hahn_delta(f: XPoly) -> XPoly:
    """(f(1 + qx) - f(x)) / (1 + (q-1) x); exact for every polynomial f."""
    if f.degree <= 0:
        return _XP_ZERO
    nums, den = _clear_denominators(f.coeffs)
    return XPoly(QRatFunc(g, den) for g in _hahn_laurent(nums))


# -- q-binomial-basis expansions ----------------------------------------------


def to_qbinom_basis(f: XPoly) -> tuple[QRatFunc, ...]:
    """Coordinates c_j = (delta^j f)(0) of f = sum_j c_j {x choose j}_q;
    the zero polynomial gives (0,)."""
    if f.is_zero:
        return (RF_ZERO,)
    nums, den = _clear_denominators(f.coeffs)
    bs = [nums[0]]
    cur = nums
    while len(cur) > 1:
        cur = _hahn_laurent(cur)
        bs.append(cur[0])
    return tuple(QRatFunc(b, den) for b in bs)


def from_qbinom_basis(coeffs: Sequence[ScalarLike]) -> XPoly:
    """Reassemble sum_j coeffs[j] {x choose j}_q in the monomial basis."""
    # XPoly coerces each scalar to Q(q) and trims trailing zeros.
    cs = XPoly(coeffs).coeffs
    if not cs:
        return _XP_ZERO
    nums, den = _clear_denominators(cs)
    out = columns_over_qfactorial(qbinom_columns(nums), len(cs) - 1)
    return out if den == ONE else out * QRatFunc(ONE, den)


def qbinom_columns(bs: Sequence[QLaurent]) -> tuple[QLaurent, ...]:
    """The x-columns of [d]_q! * sum_j bs[j] {x choose j}_q, d = len(bs) - 1.

    Since [d]_q!/[j]_q! = [j+1]_q...[d]_q, this is the Newton-Horner sum
    sum_j c_j (x - [0]_q)...(x - [j-1]_q) with c_j = bs[j] [j+1]_q...[d]_q:
    no division, so Laurent inputs give Laurent columns.  Column k is the
    coefficient of x^k.
    """
    d = len(bs) - 1
    lo = min((b.min_exp for b in bs if b), default=0)
    cs = []
    for j, b in enumerate(bs):
        c = _dense_frac(b, lo)
        for i in range(j + 1, d + 1):
            c = _qint_mul_dense(c, i)
        cs.append(c)
    return tuple(QLaurent(enumerate(col, lo)) for col in _horner_dense(cs))


def columns_over_qfactorial(cols: Sequence[QLaurent], d: int) -> XPoly:
    """The polynomial sum_k cols[k] x^k / [d]_q!, each coefficient reduced."""
    return XPoly(reduce_by_qfactorial(c, d) for c in cols)


def reduce_by_qfactorial(num: QLaurent, d: int) -> QRatFunc:
    """num / [d]_q! in lowest terms, dividing out cyclotomic factors.

    [d]_q! factors as prod over e >= 2 of Phi_e^floor(d/e), and each Phi_e is
    irreducible over Q, so peeling those factors off num yields exactly the
    reduced fraction.  An integer evaluation at q = 2 filters hopeless
    division attempts cheaply.
    """
    if num.is_zero:
        return RF_ZERO
    if d <= 1:
        return QRatFunc._make(num, ONE)
    v = num.min_exp
    cont = num.content()
    dense = _dense_frac(num.primitive())
    val2 = sum(c << e for e, c in enumerate(dense))
    den = ONE
    for e in range(2, d + 1):
        mult = d // e
        phi2 = _cyclo_at2(e)
        phi_dense = _cyclo_dense(e)
        while mult and val2 % phi2 == 0:
            quot = _divexact_dense(dense, phi_dense)
            if quot is None:
                break
            dense = quot
            val2 //= phi2
            mult -= 1
        if mult:
            den = den * cyclotomic(e) ** mult
    red = QLaurent((i + v, c * cont) for i, c in enumerate(dense))
    return QRatFunc._make(red, den)


def qfactorial_coprime(cols: Sequence[QLaurent], d: int) -> bool:
    """Is the gcd of the given Laurent polynomials coprime to [d]_q!?

    [d]_q! is a product of cyclotomics Phi_e (e >= 2), each irreducible
    over Q, so the gcd shares a factor with it iff some Phi_e divides every
    column; that is decided by an exact integer division per column, with a
    q = 2 evaluation as a cheap necessary filter.  A column with a
    non-integer coefficient is sieved by its primitive part: Phi_e is
    primitive, so by Gauss's lemma it divides a polynomial in Q[q] iff it
    divides the primitive part.
    """
    if d <= 1:
        return True
    prepared = []
    for col in cols:
        if col.is_zero:
            continue
        dense = _dense_frac(col)
        if not all(isinstance(c, int) for c in dense):
            dense = _dense_frac(col.primitive())
        prepared.append((sum(c << e for e, c in enumerate(dense)), dense))
    if not prepared:
        return True
    for e in range(2, d + 1):
        phi2 = _cyclo_at2(e)
        if any(v2 % phi2 for v2, _ in prepared):
            continue
        if all(
            _divexact_dense(dense, _cyclo_dense(e)) is not None
            for _, dense in prepared
        ):
            return False
    return True


# Dense kernel: a polynomial is a coefficient list read upward from an offset
# that the caller keeps, and every list in one computation shares it, so
# sums are elementwise.  Multiplying by [j]_q = 1 + q + ... + q^(j-1) is then
# a width-j sliding-window sum, O(len) rather than the O(len * j) schoolbook
# product.


def _qint_mul_dense(a: list, j: int) -> list:
    """a * [j]_q for j >= 0, as a window sum over prefix sums."""
    if j <= 0 or not a:
        return []
    pad = [0] * (j - 1)
    # s[i + j] - s[i] = a[i - j + 1] + ... + a[i], with a[<0] = 0
    s = pad + list(accumulate(a + pad, initial=0))
    return list(map(sub, s[j:], s[: len(a) + j - 1]))


def _sub_dense(a: list, b: list) -> list:
    return list(starmap(sub, zip_longest(a, b, fillvalue=0)))


def _horner_dense(cs: Sequence[list]) -> list[list]:
    """x-columns of sum_j cs[j] (x - [0]_q)(x - [1]_q)...(x - [j-1]_q)."""
    acc = [cs[-1]]
    for j in range(len(cs) - 2, -1, -1):
        # acc * (x - [j]_q) + cs[j]
        nxt = [_sub_dense(cs[j], _qint_mul_dense(acc[0], j))]
        for i in range(1, len(acc)):
            nxt.append(_sub_dense(acc[i - 1], _qint_mul_dense(acc[i], j)))
        nxt.append(acc[-1])
        acc = nxt
    return acc


# -- q-Stirling numbers -------------------------------------------------------


@cache
def q_stirling(n: int, k: int) -> QLaurent:
    """S_q(n, k) = S_q(n-1, k-1) + [k]_q S_q(n-1, k), S_q(0, 0) = 1."""
    if n < 0 or k < 0:
        raise ValueError("q_stirling needs n, k >= 0")
    if n == 0 or k == 0:
        return ONE if n == k else ZERO
    if k > n:
        return ZERO
    return q_stirling(n - 1, k - 1) + q_int(k) * q_stirling(n - 1, k)


# -- q = 1 specialization --------------------------------------------------


def q1_specialize(f: XPoly) -> XPoly:
    """The polynomial over Q obtained by evaluating every coefficient at q = 1."""
    return XPoly([QRatFunc(QLaurent.monomial(0, c.eval_at(1))) for c in f.coeffs])
