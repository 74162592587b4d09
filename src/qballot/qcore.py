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

The q-integers, [d]_q! and its sieve, the [j]_q passes and the packed
Newton-Horner core live in the leaf `qcyclo`, which the conjecture sweep
runs without this module.
"""

from __future__ import annotations

from functools import cache
from itertools import starmap, zip_longest
from operator import add
from typing import Iterable, Sequence, Union

from .qcyclo import (
    _pack, _qint_mul, column_bytes, newton_horner, q_factorial, q_int, reduce_by_qfactorial,
)
from .qlaurent import QRatFunc, RF_ZERO, _coerce_ratfunc, lowest_terms
from .qring import ONE, Q, ZERO, ExactnessError, QLaurent, _run

# A rational number is a QRatFunc over an integer denominator; a
# fractions.Fraction is accepted wherever a scalar is and converted to one.
ScalarLike = Union[int, QLaurent, QRatFunc]


# -- Gaussian binomials --------------------------------------------------------


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


# -- polynomials in x over Q(q) -----------------------------------------------


class XPoly:
    """A polynomial in x over Q(q): Laurent columns over one shared denominator.

    The coefficient of x^k is nums[k] / den.  (nums, den) is in lowest shared
    terms (`qlaurent.lowest_terms`) and nums has no trailing zero column, so
    equal polynomials have equal (nums, den).  Operations compute on the
    columns; the reduced per-coefficient `QRatFunc`s are built only by the
    output views `coeffs`, `coeff`, `leading`, `str` and `eval`.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        nums, den = [], ONE
        for c in coeffs:
            r = _coerce_ratfunc(c)
            if r is NotImplemented:
                raise TypeError(f"not a Q(q) scalar: {c!r}")
            if r.den == den:
                nums.append(r.num)
            elif r.den == ONE:
                nums.append(r.num * den)
            else:
                nums = [t * r.den for t in nums] + [r.num * den]
                den = den * r.den
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den = lowest_terms(nums, den)

    @classmethod
    def _raw(cls, nums: tuple[QLaurent, ...], den: QLaurent) -> "XPoly":
        # Internal: (nums, den) must already be in canonical form.
        p = cls.__new__(cls)
        p.nums = nums
        p.den = den
        return p

    @classmethod
    def _make(cls, nums: Sequence[QLaurent], den: QLaurent) -> "XPoly":
        """The polynomial sum_k nums[k] x^k / den, trimmed and reduced."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        return cls._raw(*lowest_terms(nums, den))

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
        return tuple(QRatFunc(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def coeff(self, k: int) -> QRatFunc:
        if 0 <= k < len(self.nums):
            return QRatFunc(self.nums[k], self.den)
        return RF_ZERO

    @property
    def leading(self) -> QRatFunc:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return QRatFunc(self.nums[-1], self.den)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: object) -> "XPoly":
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            a = [c * other.den for c in a]
            b = [c * den for c in b]
            den = den * other.den
        return XPoly._make(list(starmap(add, zip_longest(a, b, fillvalue=ZERO))), den)

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly._raw(tuple(-c for c in self.nums), self.den)

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
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return _XP_ZERO
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return XPoly._make(out, self.den * other.den)

    __rmul__ = __mul__

    def eval(self, point: ScalarLike) -> QRatFunc:
        """Evaluate at x = point in Q(q): the constant term of f(0 x + point).

        That polynomial is one column in lowest shared terms, which is
        already the canonical form of a QRatFunc."""
        f = subst_affine(self, 0, point)
        return QRatFunc._make(f.nums[0], f.den) if f.nums else RF_ZERO

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce_xpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
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


_XP_ZERO = XPoly._raw((), ONE)
_XP_X = XPoly._raw((ZERO, ONE), ONE)


def _coerce_xpoly(x: object):
    if isinstance(x, XPoly):
        return x
    r = _coerce_ratfunc(x)
    if r is NotImplemented:
        return NotImplemented
    return XPoly._raw((r.num,) if r else (), r.den)


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
# An XPoly already is Laurent columns over one shared denominator, so every
# operation below computes on its columns (_subst_laurent, _hahn_laurent)
# with no gcd, and reduces once per result (XPoly._make).  The constructor
# puts scalars in that form by cross-multiplying them onto one denominator
# and reducing once; outside qlaurent, only analysis.numerator calls
# poly_gcd.  The q-binomial expansions work on the same columns:
# qbinom_coords reads coordinates off iterated Hahn steps, and
# from_qbinom_coords is the one route from coordinates to an XPoly.


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
    # (a x + b) = (an x + bn) / d; XPoly._make reduces the result once.
    an, bn, d = ra.num * rb.den, rb.num * ra.den, ra.den * rb.den
    return XPoly._make(_subst_laurent(f.nums, an, bn, d), f.den * d**f.degree)


def _hahn_laurent(cs: Sequence[QLaurent]) -> list[QLaurent]:
    """One Hahn step on a dense x-coefficient list over Z[q, q^-1]."""
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
    return XPoly._make(_hahn_laurent(f.nums), f.den)


# -- q-binomial-basis expansions ----------------------------------------------


def qbinom_coords(cols: Sequence[QLaurent]) -> list[QLaurent]:
    """Coordinates b_j = (delta^j f)(0) of f = sum_k cols[k] x^k in the
    {x choose j}_q basis, over the columns' own denominator."""
    bs = [cols[0]]
    while len(cols) > 1:
        cols = _hahn_laurent(cols)
        bs.append(cols[0])
    return bs


def to_qbinom_basis(f: XPoly) -> tuple[QRatFunc, ...]:
    """Coordinates c_j of f = sum_j c_j {x choose j}_q; the zero polynomial
    gives (0,)."""
    return tuple(QRatFunc(b, f.den) for b in qbinom_coords(f.nums or (ZERO,)))


def from_qbinom_basis(coeffs: Sequence[ScalarLike]) -> XPoly:
    """Reassemble sum_j coeffs[j] {x choose j}_q in the monomial basis."""
    f = XPoly(coeffs)
    return from_qbinom_coords(f.nums or (ZERO,), f.den)


def from_qbinom_coords(bs: Sequence[QLaurent], den: QLaurent = ONE) -> XPoly:
    """The polynomial sum_j bs[j] {x choose j}_q / den, for Laurent bs: the
    one route from q-binomial coordinates to an XPoly."""
    out = columns_over_qfactorial(qbinom_columns(bs), len(bs) - 1)
    return out if den == ONE else XPoly._make(out.nums, out.den * den)


def qbinom_columns(bs: Sequence[QLaurent]) -> tuple[QLaurent, ...]:
    """The x-columns of [d]_q! * sum_j bs[j] {x choose j}_q, d = len(bs) - 1.

    Since [d]_q!/[j]_q! = [j+1]_q...[d]_q, this is the Newton-Horner sum
    sum_j bs[j] [j+1]_q...[d]_q (x - [0]_q)...(x - [j-1]_q): no division,
    so Laurent inputs give Laurent columns.  Column k is the coefficient of
    x^k.

    Each b_j is packed as one integer at q = 2^w, at its offset from the
    lowest exponent, with the width `column_bytes` gives, and the packed
    values go to `newton_horner`.
    """
    d = len(bs) - 1
    live = [b for b in bs if b]
    if not live:
        return (ZERO,) * (d + 1)
    lo = min(b.lo for b in live)
    nbytes = column_bytes([sum(map(abs, b.cs)) for b in bs])
    w = 8 * nbytes
    return newton_horner(
        [_pack(b.cs, nbytes) << (b.lo - lo) * w if b else 0 for b in bs], lo, nbytes)


def columns_over_qfactorial(cols: Sequence[QLaurent], d: int) -> XPoly:
    """The polynomial sum_k cols[k] x^k / [d]_q!, in lowest shared terms."""
    cols = list(cols)
    while cols and not cols[-1]:
        cols.pop()
    if not cols:
        return _XP_ZERO
    # The sieve's result is already in lowest shared terms.
    return XPoly._raw(*reduce_by_qfactorial(cols, d))


def qfactorial_coprime(cols: Sequence[QLaurent], d: int) -> bool:
    """Is the gcd of the given Laurent polynomials coprime to [d]_q!?

    True iff the sieve `reduce_by_qfactorial` divides nothing out.
    """
    return reduce_by_qfactorial(cols, d)[1] == q_factorial(d)


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
    return q_stirling(n - 1, k - 1) + _qint_mul(q_stirling(n - 1, k), k)


# -- q = 1 specialization --------------------------------------------------


def q1_specialize(f: XPoly) -> XPoly:
    """The polynomial over Q obtained by evaluating every coefficient at q = 1.

    A Laurent polynomial's value at q = 1 is the sum of its coefficients.
    den is the lcm of the coefficients' denominators, so it vanishes at
    q = 1 iff some coefficient has a pole there (ZeroDivisionError).
    """
    d1 = sum(f.den.cs)
    if d1 == 0:
        raise ZeroDivisionError("denominator vanishes at q=1")
    return XPoly._make([_run(0, (sum(c.cs),)) for c in f.nums], _run(0, (d1,)))
