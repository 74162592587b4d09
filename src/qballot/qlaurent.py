"""Exact arithmetic in q: Laurent polynomials and reduced rational functions.

Everything downstream reduces to identities between elements of Q[q, q^-1]
or its fraction field, so this module is deliberately exact: coefficients
are arbitrary-precision rationals (`fractions.Fraction`, collapsed to plain
`int` whenever integral) and no floating point ever enters.

Representation invariants:

* `QLaurent` stores one dense run: an offset `lo` and a tuple `cs` of the
  coefficients of q^lo .. q^hi, with nonzero first and last entries (zero
  is the empty run at lo = 0); exponents may be negative.  Interior zeros
  are stored, so storage grows with max_exp - min_exp rather than with the
  number of terms.  That suits every polynomial the package computes with
  (ballot rows, [d]_q!, the Theorem 1 columns are all dense); the only
  gapped ones it builds are monomials and q^d - 1 inside `cyclotomic`.
* `QRatFunc` stores a pair num/den of `QLaurent` with den a polynomial
  (no negative exponents), content 1, positive leading coefficient, and no
  common polynomial factor with num.  Monomial factors q^m are kept in the
  numerator, so the denominator always has a nonzero constant term.  That
  form is `lowest_terms` with one column; `qcore.XPoly` keeps its columns
  over one shared denominator in the same form.

Both types are immutable and hashable; equality is structural, which is
sound because construction always canonicalizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd as _int_gcd
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

BigRat = Fraction

CoeffLike = Union[int, Fraction]


class ExactnessError(ArithmeticError):
    """A division that theory guarantees to be exact left a remainder."""


def _as_coeff(c: CoeffLike) -> CoeffLike:
    # Keep integral values as plain ints: int arithmetic is several times
    # faster than Fraction and the two hash/compare identically.
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational: {c!r}")


class QLaurent:
    """A Laurent polynomial in q with exact rational coefficients.

    `cs[i]` is the coefficient of q^(lo + i): a tuple with nonzero first and
    last entries, and zero is the empty run at lo = 0.  `ints` records that
    every coefficient is an int, so integer arithmetic skips the Fraction
    collapse.  All three are read-only.
    """

    __slots__ = ("lo", "cs", "ints")

    def __init__(self, terms: Union[Mapping[int, CoeffLike], Iterable[tuple[int, CoeffLike]], None] = None):
        data: dict[int, CoeffLike] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                c = _as_coeff(c)
                if c:
                    data[e] = data.get(e, 0) + c
        lo = min(data, default=0)
        cs = [0] * (max(data) - lo + 1) if data else []
        for e, c in data.items():
            cs[e - lo] = c
        p = _run(lo, cs)
        self.lo, self.cs, self.ints = p.lo, p.cs, p.ints

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return _ZERO

    @classmethod
    def one(cls) -> "QLaurent":
        return _ONE

    @classmethod
    def monomial(cls, exp: int, coeff: CoeffLike = 1) -> "QLaurent":
        c = _as_coeff(coeff)
        return _raw(int(exp), (c,), type(c) is int) if c else _ZERO

    # -- basic queries --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.cs)

    @property
    def is_zero(self) -> bool:
        return not self.cs

    @property
    def min_exp(self) -> int:
        if not self.cs:
            raise ValueError("zero polynomial has no exponents")
        return self.lo

    @property
    def max_exp(self) -> int:
        if not self.cs:
            raise ValueError("zero polynomial has no exponents")
        return self.lo + len(self.cs) - 1

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs (the zero poly included)."""
        return self.lo >= 0

    def coeff(self, exp: int) -> CoeffLike:
        i = exp - self.lo
        return self.cs[i] if 0 <= i < len(self.cs) else 0

    def items(self) -> tuple[tuple[int, CoeffLike], ...]:
        return tuple((e, c) for e, c in enumerate(self.cs, self.lo) if c)

    def __iter__(self) -> Iterator[tuple[int, CoeffLike]]:
        return iter(self.items())

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return len(self.cs) - self.cs.count(0)

    @property
    def leading_coeff(self) -> CoeffLike:
        return self.coeff(self.max_exp)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, add)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return _raw(self.lo, tuple(map(neg, self.cs)), self.ints)

    def __sub__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, sub)

    def __rsub__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, sub)

    def __mul__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.cs or not other.cs:
            return _ZERO
        lo, ints = self.lo + other.lo, self.ints and other.ints
        x, y = (self, other) if len(self.cs) <= len(other.cs) else (other, self)
        a, b = x.cs, y.cs
        if len(a) == 1:
            c = a[0]
            if c == 1:
                return _raw(lo, b, y.ints)
            if len(b) == 1:
                c = _as_coeff(c * b[0])
                return _raw(lo, (c,), type(c) is int)
            return _run(lo, list(map(mul, b, repeat(c))), ints)
        # Schoolbook: one shifted, scaled copy of b per nonzero term of a.
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + m] = map(add, out[i:i + m], map(mul, b, repeat(c)))
        return _run(lo, out, ints)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise ValueError("negative powers are not defined for QLaurent")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, m: int) -> "QLaurent":
        """Multiply by q^m (exponent shift)."""
        if m == 0 or not self.cs:
            return self
        return _raw(self.lo + m, self.cs, self.ints)

    def subs_q_inverse(self) -> "QLaurent":
        """The substitution q -> 1/q; an involution and a ring homomorphism."""
        if not self.cs:
            return self
        return _raw(1 - self.lo - len(self.cs), self.cs[::-1], self.ints)

    def eval_at(self, v: CoeffLike) -> Fraction:
        """Evaluate at q = v exactly.  v = 0 with negative exponents is rejected."""
        v = Fraction(v)
        if v == 0:
            if self.lo < 0:
                raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
            return Fraction(self.coeff(0))
        x = v.numerator if v.denominator == 1 else v
        total = 0
        for c in reversed(self.cs):
            total = total * x + c
        return total * v**self.lo

    # -- content and primitive part -------------------------------------------

    def content(self) -> Fraction:
        """The positive rational c with self = c * (primitive integer poly)."""
        if not self.cs:
            return Fraction(0)
        if self.ints:
            return Fraction(_int_gcd(*self.cs))
        num = 0
        den = 1
        for c in self.cs:
            f = Fraction(c)
            num = _int_gcd(num, f.numerator)
            den = den * f.denominator // _int_gcd(den, f.denominator)
        return Fraction(num, den)

    def primitive(self) -> "QLaurent":
        """self / content(); integer coefficients, same sign pattern."""
        c = self.content()
        if c in (0, 1):
            return self
        if self.ints:
            g = c.numerator
            return _raw(self.lo, tuple(v // g for v in self.cs), True)
        inv = 1 / c
        return _run(self.lo, [v * inv for v in self.cs])

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return self.lo == other.lo and self.cs == other.cs
        if isinstance(other, (int, Fraction)):
            return self.cs == ((other,) if other else ()) and self.lo == 0
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.cs))

    def __str__(self) -> str:
        if not self.cs:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            if e == 0:
                body = _coeff_str(c, standalone=True)
            else:
                var = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = "-" + var
                else:
                    body = _coeff_str(c, standalone=False) + var
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QLaurent({self})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[list]:
        """Pairs [exponent, coefficient-string], sorted by exponent."""
        return [[e, str(c)] for e, c in self.items()]


def _raw(lo: int, cs: tuple, ints: bool) -> QLaurent:
    # Internal: cs must already be canonical, and ints true iff every entry is.
    p = _new(QLaurent)
    p.lo, p.cs, p.ints = lo, cs, ints
    return p


def _run(lo: int, cs: Sequence[CoeffLike], ints: bool = False) -> QLaurent:
    """The QLaurent sum_i cs[i] q^(lo+i), with zero ends trimmed.  Unless the
    caller passes ints (every entry an int), integral Fractions are first
    collapsed to int."""
    if not ints:
        cs = [c if type(c) is int else _as_coeff(c) for c in cs]
        ints = Fraction not in map(type, cs)
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    if not hi:
        return _ZERO
    i = 0
    while not cs[i]:
        i += 1
    return _raw(lo + i, tuple(cs[i:hi]), ints)


def _combine(a: QLaurent, b: QLaurent, op) -> QLaurent:
    """a + b or a - b, for op operator.add or operator.sub."""
    if not b.cs:
        return a
    if not a.cs:
        return b if op is add else -b
    if len(a.cs) == len(b.cs) == 1 and a.lo == b.lo:  # two terms at one exponent
        c = _as_coeff(op(a.cs[0], b.cs[0]))
        return _raw(a.lo, (c,), type(c) is int) if c else _ZERO
    lo = min(a.lo, b.lo)
    ia, ib = a.lo - lo, b.lo - lo
    end = ib + len(b.cs)
    out = [0] * max(ia + len(a.cs), end)
    out[ia:ia + len(a.cs)] = a.cs
    out[ib:end] = map(op, out[ib:end], b.cs)
    return _run(lo, out, a.ints and b.ints)


def _coeff_str(c: CoeffLike, standalone: bool) -> str:
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    s = f"{f.numerator}/{f.denominator}"
    return s if standalone else f"({s})"


def _coerce_laurent(x: object):
    if isinstance(x, QLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        c = _as_coeff(x)
        return _raw(0, (c,), type(c) is int) if c else _ZERO
    return NotImplemented


_new = object.__new__
_ZERO = _raw(0, (), True)
_ONE = _raw(0, (1,), True)
Q = _raw(1, (1,), True)


# -- gcd and exact division over Q[q, q^-1] -----------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _list_content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = _int_gcd(g, c)
        if g == 1:
            break
    return g


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), over the integers."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lr = r[-1]
        if lb == 1:
            c = lr
        elif lb == -1:
            c = -lr
        else:
            r = [lb * x for x in r]
            c = lr
        shift = len(r) - 1 - db
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
        _trim(r)
    return r


def poly_gcd(a: QLaurent, b: QLaurent) -> QLaurent:
    """Greatest common polynomial divisor of a and b, up to monomials q^m.

    Monomial factors are excluded: the result has a nonzero constant term,
    integer coefficients with content 1 and a positive leading coefficient.
    Both arguments zero is rejected.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        g = (b if a.is_zero else a).primitive().cs
        return _raw(0, g if g[-1] > 0 else tuple(map(neg, g)), True)
    # Both runs are read upward from their lowest term, so q divides neither.
    da, db = a.primitive().cs, b.primitive().cs
    if len(da) < len(db):
        da, db = db, da
    # Primitive polynomial remainder sequence: strip integer content each
    # step to keep coefficient growth in check.
    while db:
        r = _pseudo_rem(da, db)
        if r:
            c = _list_content(r)
            if c > 1:
                r = [x // c for x in r]
        da, db = db, r
    if da[-1] < 0:
        da = [-c for c in da]
    return _run(0, da, True)


def ql_divexact(a: QLaurent, b: QLaurent) -> QLaurent:
    """Exact quotient a / b in Q[q, q^-1]; raises ExactnessError on remainder."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return _ZERO
    quot = _divexact_dense(a.cs, b.cs)
    if quot is None:
        raise ExactnessError(f"({a}) is not divisible by ({b})")
    return _run(a.lo - b.lo, quot)


def _divexact_dense(a: Sequence[CoeffLike], b: Sequence[CoeffLike]) -> list[CoeffLike] | None:
    """Exact quotient of coefficient runs read from q^0, or None on a
    remainder.  Needs b[0] != 0; when a[-1] and b[-1] are nonzero, so is the
    quotient's last entry."""
    n = len(a) - len(b) + 1
    if n <= 0:
        return None
    # Ascending synthetic division: term k of the quotient clears rem[k].
    b0 = b[0]
    rem = list(a)
    quot: list[CoeffLike] = [0] * n
    for k in range(n):
        c = rem[k]
        if c:
            if b0 != 1:
                c = _as_coeff(Fraction(c) / b0)
            quot[k] = c
            for j, bc in enumerate(b):
                rem[k + j] -= c * bc
    return None if any(rem) else quot


# -- reduced rational functions ----------------------------------------------


def lowest_terms(
    nums: Sequence[QLaurent], den: QLaurent
) -> tuple[tuple[QLaurent, ...], QLaurent]:
    """The canonical form of the fractions nums[k] / den over one shared
    denominator.

    The returned den is a polynomial with a nonzero constant term, integer
    coefficients of content 1 and a positive leading coefficient, and no
    polynomial factor divides it and every returned column: monomials q^m go
    to the columns, one gcd fold over den and every column (stopping at 1,
    and skipping the gcd for a column the running gcd divides) is divided
    out, and the rational content of den moves to the columns.
    Equal fraction lists therefore have equal forms.  All-zero columns come
    back over 1; a zero den raises ZeroDivisionError.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if not any(nums):
        return tuple(nums), _ONE
    v = den.min_exp
    if v:
        den = den.shifted(-v)
        nums = [c.shifted(-v) for c in nums]
    if den != _ONE:
        # A column that the running gcd g divides leaves g as it is, so try
        # that exact division first and run the remainder sequence only on a
        # remainder.  While g is still den, the quotients are the columns.
        g, quots = den, []
        for c in nums:
            quot = _divexact_dense(c.cs, g.cs) if c else ()
            if quot is not None:
                if quots is not None:
                    quots.append(_run(c.lo, quot))
                continue
            g, quots = poly_gcd(g, c), None
            if g == _ONE:
                break
        if quots is not None:
            nums, den = quots, _ONE
        elif g != _ONE:
            nums = [ql_divexact(c, g) for c in nums]
            den = ql_divexact(den, g)
        c = den.content()
        if den.leading_coeff < 0:
            c = -c
        if c != 1:
            inv = 1 / c
            nums = [t * inv for t in nums]
            den = den * inv
    return tuple(nums), den


class QRatFunc:
    """An element of Q(q) as a canonical reduced fraction num / den."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[QLaurent, int, Fraction], den: Union[QLaurent, int, Fraction] = _ONE):
        num = _coerce_laurent(num)
        den = _coerce_laurent(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("QRatFunc expects QLaurent or exact rational arguments")
        (self.num,), self.den = lowest_terms((num,), den)

    @classmethod
    def _make(cls, num: QLaurent, den: QLaurent) -> "QRatFunc":
        # Internal: (num, den) must already be in canonical form.
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_polynomial(self) -> bool:
        return self.den == _ONE

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return QRatFunc(self.num + other.num, self.den)
        return QRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "QRatFunc":
        return QRatFunc._make(-self.num, self.den)

    def __sub__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return QRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return QRatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "QRatFunc":
        if n < 0:
            return QRatFunc(self.den, self.num) ** (-n)
        return QRatFunc(self.num**n, self.den**n)

    def subs_q_inverse(self) -> "QRatFunc":
        return QRatFunc(self.num.subs_q_inverse(), self.den.subs_q_inverse())

    def eval_at(self, v: CoeffLike) -> Fraction:
        dv = self.den.eval_at(v)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={v}")
        return self.num.eval_at(v) / dv

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        n = str(self.num)
        if len(self.num) > 1:
            n = f"({n})"
        d = str(self.den)
        if len(self.den) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self) -> str:
        return f"QRatFunc({self})"


RF_ZERO = QRatFunc._make(_ZERO, _ONE)
RF_ONE = QRatFunc._make(_ONE, _ONE)


def _coerce_ratfunc(x: object):
    if isinstance(x, QRatFunc):
        return x
    if isinstance(x, (QLaurent, int, Fraction)):
        lx = _coerce_laurent(x)
        return QRatFunc._make(lx, _ONE)
    return NotImplemented


ZERO = _ZERO
ONE = _ONE
