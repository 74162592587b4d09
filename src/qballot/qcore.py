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
from itertools import accumulate, chain, starmap, zip_longest
from math import comb, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

from .qlaurent import (
    ONE,
    Q,
    ZERO,
    ExactnessError,
    QLaurent,
    QRatFunc,
    RF_ZERO,
    _coerce_ratfunc,
    _divexact_dense,
    _run,
    lowest_terms,
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
    return _qint_mul(q_factorial(n - 1), n)


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
def _cyclo_at2(d: int) -> int:
    return int(cyclotomic(d).eval_at(2))


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
        cs = []
        for c in coeffs:
            r = _coerce_ratfunc(c)
            if r is NotImplemented:
                raise TypeError(f"not a Q(q) scalar: {c!r}")
            cs.append(r)
        while cs and cs[-1].is_zero:
            cs.pop()
        nums, self.den = _clear_denominators(cs)
        self.nums = tuple(nums)

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
        """Evaluate at x = point in Q(q): the constant term of f(0 x + point)."""
        return subst_affine(self, 0, point).coeff(0)

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
# with no gcd, and reduces once per result (XPoly._make).  Scalars are
# cleared to that form by _clear_denominators; outside qlaurent, only it
# and analysis.numerator call poly_gcd.  The q-binomial expansions work on
# the same columns: qbinom_coords reads coordinates off iterated Hahn steps,
# and from_qbinom_coords is the one route from coordinates to an XPoly.


def _clear_denominators(cs: Sequence[QRatFunc]) -> tuple[list[QLaurent], QLaurent]:
    """Write cs[k] = nums[k] / den with every nums[k] Laurent and one shared den.

    den is the lcm of the reduced denominators, so the result is already in
    lowest shared terms (`qlaurent.lowest_terms`).
    """
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
    (an, bn), d = _clear_denominators((ra, rb))
    return XPoly._make(_subst_laurent(f.nums, an, bn, d), f.den * d**f.degree)


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

    The sum is computed times (1-q)^d in y = (1-q)x.  There (1-q)[i]_q =
    1 - q^i and (1-q)(x - [l]_q) = y - (1 - q^l), so on the runs packed as
    integers at q = 2^w every factor is one shift and one subtract.  The
    y-columns r_k = cols[k] (1-q)^(d-k) are the only values unpacked: w
    holds `_column_bound`, a sign bit and a spare bit, rounded up to whole
    bytes, so their signed digits are exact (q -> 2^w is a ring map, so no
    intermediate value needs to fit).  Each column is r_k divided d-k times
    by 1-q.  Fraction inputs are scaled to integers by the lcm of their
    denominators and divided back at the end.
    """
    d = len(bs) - 1
    live = [b for b in bs if b]
    if not live:
        return (ZERO,) * (d + 1)
    lo = min(b.lo for b in live)
    scale = lcm(*(c.denominator for b in live if not b.ints for c in b.cs))
    runs = [b.cs if scale == 1 else [c.numerator * (scale // c.denominator) for c in b.cs]
            for b in bs]
    nbytes = (_column_bound([sum(map(abs, run)) for run in runs]).bit_length() + 9) // 8
    w = 8 * nbytes
    # e_j = b_j (1 - q^(j+1))...(1 - q^d), each b_j packed at its offset from lo
    es = []
    for j, (b, run) in enumerate(zip(bs, runs)):
        v = 0
        if b:
            v = _pack(run, nbytes) << (b.lo - lo) * w
            for i in range(j + 1, d + 1):
                v -= v << i * w
        es.append(v)
    # Horner in y: acc * (y - (1 - q^j)) + e_j; y-column i is
    # acc[i-1] - (1 - q^j) acc[i]
    acc = es[-1:]
    for j in range(d - 1, -1, -1):
        s = j * w
        acc = [low - t + (t << s) for low, t in zip([es[j], *acc], acc)] + acc[-1:]
    cols = []
    for k, r in enumerate(acc):
        if not r:
            cols.append(ZERO)
            continue
        z = ((r & -r).bit_length() - 1) // w  # the low zero digits
        cs = _unpack(r >> z * w, nbytes)
        for _ in range(d - k):
            # r = (1 - q) p gives p's run as the prefix sums of r's, and a
            # last prefix sum r(1) = 0
            cs = list(accumulate(cs))
            if cs.pop():
                raise ExactnessError(
                    "a Newton-Horner column is not divisible by 1 - q; internal invariant broken")
        cols.append(_run(lo + z, cs, True) if scale == 1
                    else _run(lo + z, [Fraction(c, scale) for c in cs]))
    return tuple(cols)


def _column_bound(norms: Sequence[int]) -> int:
    """B = max_k 2^(d-k) sum_{j>=k} norms[j] C(j, k), d = len(norms) - 1.

    With norms[j] the L1 norm of integer coordinate b_j, B bounds every
    coefficient of the y-column r_k of `qbinom_columns`: r_k sums, over
    j >= k, b_j times d-j factors 1 - q^i and C(j, k) products of j-k
    factors q^l - 1, and every such factor has L1 norm at most 2.
    """
    d = len(norms) - 1
    return max(
        sum(norms[j] * comb(j, k) for j in range(k, d + 1)) << (d - k)
        for k in range(d + 1)
    )


def _pack(run: Sequence[int], nbytes: int) -> int:
    """sum_i run[i] 2^(w i), w = 8 nbytes, for |run[i]| < 2^(w-1).

    The entries are joined as w-bit two's complement, so each negative one
    reads 2^w too high; its top bit (the `_top_bits` mask) takes that off.
    """
    u = int.from_bytes(
        b"".join([c.to_bytes(nbytes, "little", signed=True) for c in run]), "little")
    return u - ((u & _top_bits(nbytes, len(run))) << 1)


def _unpack(v: int, nbytes: int) -> list[int]:
    """The base-2^w digits of v, w = 8 nbytes, when each lies in
    [-2^(w-1), 2^(w-1)): the inverse of `_pack`, high zero digits allowed.

    Adding the top bits lifts every digit into [0, 2^w) with no carry, and
    flipping them back leaves each digit in w-bit two's complement.
    """
    n = abs(v).bit_length() // (8 * nbytes) + 1
    top = _top_bits(nbytes, n)
    raw = ((v + top) ^ top).to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
            for i in range(0, n * nbytes, nbytes)]


def _top_bits(nbytes: int, n: int) -> int:
    """2^(w-1) (1 + 2^w + ... + 2^(w(n-1))), w = 8 nbytes: the sign bits of
    n digits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def columns_over_qfactorial(cols: Sequence[QLaurent], d: int) -> XPoly:
    """The polynomial sum_k cols[k] x^k / [d]_q!, in lowest shared terms."""
    cols = list(cols)
    while cols and not cols[-1]:
        cols.pop()
    if not cols:
        return _XP_ZERO
    # The sieve's result is already in lowest shared terms.
    return XPoly._raw(*reduce_by_qfactorial(cols, d))


def reduce_by_qfactorial(
    cols: Sequence[QLaurent], d: int
) -> tuple[tuple[QLaurent, ...], QLaurent]:
    """cols[k] / [d]_q! over one shared denominator in lowest terms, as
    (reduced columns, denominator).

    [d]_q! factors as prod over e >= 2 of Phi_e^floor(d/e), and each Phi_e
    is irreducible over Q, so dividing out every Phi_e that divides every
    column, up to its power in [d]_q!, yields exactly the lowest terms.  An
    integer evaluation at q = 2 filters hopeless division attempts cheaply.
    A column with a non-integer coefficient is sieved by its primitive
    part: Phi_e is primitive, so by Gauss's lemma it divides a polynomial
    in Q[q] iff it divides the primitive part.  A set with no nonzero
    column has nothing to divide and comes back over [d]_q!.
    """
    cols = tuple(cols)
    live = []  # (index, scale, integer column)
    for i, col in enumerate(cols):
        if col:
            scale = 1
            if not col.ints:
                scale, col = col.content(), col.primitive()
            live.append((i, scale, col))
    if not live:
        return cols, q_factorial(d)
    # The sieve divides the runs read from each column's lowest term.
    runs = [col.cs for *_, col in live]
    vals2 = [sum(c << e for e, c in enumerate(run)) for run in runs]
    full = den = q_factorial(d).cs
    for e in range(2, d + 1):
        phi2, phi = _cyclo_at2(e), cyclotomic(e).cs
        for _ in range(d // e):
            if any(v2 % phi2 for v2 in vals2):
                break
            quots = _divexact_all(runs, phi)
            if quots is None:
                break
            runs, den = quots, _divexact_dense(den, phi)
            vals2 = [v2 // phi2 for v2 in vals2]
    if den is full:  # nothing divided out
        return cols, q_factorial(d)
    out = list(cols)
    for (i, scale, col), run in zip(live, runs):
        out[i] = _run(col.lo, [c * scale for c in run], scale == 1)
    return tuple(out), _run(0, den, True)


def _divexact_all(runs: list[Sequence[int]], b: Sequence[int]) -> list[list] | None:
    """Every run divided exactly by b, or None at the first remainder."""
    out = []
    for a in runs:
        quot = _divexact_dense(a, b)
        if quot is None:
            return None
        out.append(quot)
    return out


def qfactorial_coprime(cols: Sequence[QLaurent], d: int) -> bool:
    """Is the gcd of the given Laurent polynomials coprime to [d]_q!?

    True iff the sieve `reduce_by_qfactorial` divides nothing out.
    """
    return reduce_by_qfactorial(cols, d)[1] == q_factorial(d)


# q_factorial multiplies by [j]_q = 1 + q + ... + q^(j-1) as a width-j
# sliding-window sum over the coefficient run, O(len) rather than the
# O(len * j) schoolbook product.  (qbinom_columns needs no [j]_q products:
# it works on (1 - q)[j]_q = 1 - q^j.)


def _qint_mul(p: QLaurent, j: int) -> QLaurent:
    """p * [j]_q for j >= 0, as a window sum over prefix sums."""
    if j <= 0 or not p:
        return ZERO
    a, pad = p.cs, [0] * (j - 1)
    # s[i + j] - s[i] = a[i - j + 1] + ... + a[i], with a[<0] = 0
    s = pad + list(accumulate(chain(a, pad), initial=0))
    return _run(p.lo, list(map(sub, s[j:], s[: len(a) + j - 1])), p.ints)


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
    """The polynomial over Q obtained by evaluating every coefficient at q = 1.

    den is the lcm of the coefficients' denominators, so it vanishes at
    q = 1 iff some coefficient has a pole there (ZeroDivisionError).
    """
    d1 = f.den.eval_at(1)
    if d1 == 0:
        raise ZeroDivisionError("denominator vanishes at q=1")
    return XPoly([c.eval_at(1) / d1 for c in f.nums])
