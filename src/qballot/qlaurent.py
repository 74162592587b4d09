"""Exact arithmetic in q: Laurent polynomials and reduced rational functions.

Everything downstream reduces to identities between elements of Q[q, q^-1]
or its fraction field, so this module is deliberately exact: coefficients
are arbitrary-precision rationals (`fractions.Fraction`, collapsed to plain
`int` whenever integral) and no floating point ever enters.

Representation invariants:

* `QLaurent` stores a sparse map {exponent: coefficient} with no zero
  coefficients; exponents may be negative.
* `QRatFunc` stores a pair num/den of `QLaurent` with den a polynomial
  (no negative exponents), content 1, positive leading coefficient, and no
  common polynomial factor with num.  Monomial factors q^m are kept in the
  numerator, so the denominator always has a nonzero constant term.

Both types are immutable and hashable; equality is structural, which is
sound because construction always canonicalizes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Iterator, Mapping, Union

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
    """A Laurent polynomial in q with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, CoeffLike], Iterable[tuple[int, CoeffLike]], None] = None):
        data: dict[int, CoeffLike] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                c = _as_coeff(c)
                if c:
                    c0 = data.get(e)
                    if c0 is None:
                        data[e] = c
                    else:
                        s = c0 + c
                        if s:
                            data[e] = _as_coeff(s)
                        else:
                            del data[e]
        self._terms = data

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return _ZERO

    @classmethod
    def one(cls) -> "QLaurent":
        return _ONE

    @classmethod
    def monomial(cls, exp: int, coeff: CoeffLike = 1) -> "QLaurent":
        p = cls.__new__(cls)
        c = _as_coeff(coeff)
        p._terms = {int(exp): c} if c else {}
        return p

    @classmethod
    def _raw(cls, data: dict[int, CoeffLike]) -> "QLaurent":
        # Internal: data must already be zero-free with normalized coeffs.
        p = cls.__new__(cls)
        p._terms = data
        return p

    # -- basic queries --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs (the zero poly included)."""
        return all(e >= 0 for e in self._terms)

    def coeff(self, exp: int) -> CoeffLike:
        return self._terms.get(exp, 0)

    def items(self) -> tuple[tuple[int, CoeffLike], ...]:
        return tuple(sorted(self._terms.items()))

    def __iter__(self) -> Iterator[tuple[int, CoeffLike]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def leading_coeff(self) -> CoeffLike:
        return self._terms[self.max_exp]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        data = dict(self._terms)
        for e, c in other._terms.items():
            c0 = data.get(e)
            if c0 is None:
                data[e] = c
            else:
                s = c0 + c
                if s:
                    data[e] = _as_coeff(s)
                else:
                    del data[e]
        return QLaurent._raw(data)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((ea, ca),) = a.items()
            if ca == 1:
                return QLaurent._raw({e + ea: c for e, c in b.items()})
            return QLaurent._raw({e + ea: _as_coeff(c * ca) for e, c in b.items()})
        data: dict[int, CoeffLike] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                c0 = data.get(e)
                if c0 is None:
                    data[e] = ca * cb
                else:
                    data[e] = c0 + ca * cb
        return QLaurent._raw({e: _as_coeff(c) for e, c in data.items() if c})

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
        if m == 0 or not self._terms:
            return self
        return QLaurent._raw({e + m: c for e, c in self._terms.items()})

    def subs_q_inverse(self) -> "QLaurent":
        """The substitution q -> 1/q; an involution and a ring homomorphism."""
        return QLaurent._raw({-e: c for e, c in self._terms.items()})

    def eval_at(self, v: CoeffLike) -> Fraction:
        """Evaluate at q = v exactly.  v = 0 with negative exponents is rejected."""
        v = Fraction(v)
        if v == 0:
            if any(e < 0 for e in self._terms):
                raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
            return Fraction(self._terms.get(0, 0))
        total = Fraction(0)
        for e, c in self._terms.items():
            total += Fraction(c) * v**e
        return total

    # -- content and primitive part -------------------------------------------

    def content(self) -> Fraction:
        """The positive rational c with self = c * (primitive integer poly)."""
        if not self._terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self._terms.values():
            f = Fraction(c)
            num = _int_gcd(num, f.numerator)
            den = den * f.denominator // _int_gcd(den, f.denominator)
        return Fraction(num, den)

    def primitive(self) -> "QLaurent":
        """self / content(); integer coefficients, same sign pattern."""
        c = self.content()
        if c in (0, 1):
            return self
        inv = 1 / c
        return QLaurent._raw({e: _as_coeff(v * inv) for e, v in self._terms.items()})

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: _as_coeff(other)} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
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

    @classmethod
    def from_json(cls, data: Iterable) -> "QLaurent":
        return cls((int(e), Fraction(c)) for e, c in data)


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
        return QLaurent._raw({0: c}) if c else _ZERO
    return NotImplemented


_ZERO = QLaurent._raw({})
_ONE = QLaurent._raw({0: 1})
Q = QLaurent._raw({1: 1})


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
        p = b if a.is_zero else a
        dense = _dense_frac(p.primitive())
        g = dense if dense[-1] > 0 else [-c for c in dense]
        return QLaurent(enumerate(g))
    da, db = _dense_frac(a.primitive()), _dense_frac(b.primitive())
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
    return QLaurent(enumerate(da))


def ql_divexact(a: QLaurent, b: QLaurent) -> QLaurent:
    """Exact quotient a / b in Q[q, q^-1]; raises ExactnessError on remainder."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return _ZERO
    off = a.min_exp - b.min_exp
    da = _dense_frac(a)
    db = _dense_frac(b)
    if len(da) < len(db):
        raise ExactnessError(f"({a}) is not divisible by ({b})")
    # Ascending synthetic division; db[0] != 0 after stripping valuations.
    n = len(da) - len(db) + 1
    quot: list[CoeffLike] = [0] * n
    b0 = db[0]
    rem = list(da)
    for k in range(n):
        if rem[k]:
            cq = rem[k] if b0 == 1 else _as_coeff(Fraction(rem[k]) / Fraction(b0))
            quot[k] = cq
            for j, bc in enumerate(db):
                rem[k + j] -= cq * bc
    if any(rem):
        raise ExactnessError(f"({a}) is not divisible by ({b})")
    return QLaurent((k + off, c) for k, c in enumerate(quot))


def _dense_frac(p: QLaurent, lo: int | None = None) -> list[CoeffLike]:
    """Coefficients of p, low to high, read upward from q^lo (default: its
    lowest term); p must have no term below q^lo.  Zero gives []."""
    if not p._terms:
        return []
    if lo is None:
        lo = p.min_exp
    out: list[CoeffLike] = [0] * (p.max_exp - lo + 1)
    for e, c in p._terms.items():
        out[e - lo] = c
    return out


# -- reduced rational functions ----------------------------------------------


class QRatFunc:
    """An element of Q(q) as a canonical reduced fraction num / den."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[QLaurent, int, Fraction], den: Union[QLaurent, int, Fraction] = _ONE):
        num = _coerce_laurent(num)
        den = _coerce_laurent(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("QRatFunc expects QLaurent or exact rational arguments")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = _ZERO
            self.den = _ONE
            return
        # Move any monomial factor q^m of den into num.
        v = den.min_exp
        if v:
            den = den.shifted(-v)
            num = num.shifted(-v)
        if den != _ONE:
            g = poly_gcd(num, den)
            if g != _ONE:
                num = ql_divexact(num, g)
                den = ql_divexact(den, g)
            # Scale so den is primitive with positive leading coefficient.
            c = den.content()
            if den.leading_coeff < 0:
                c = -c
            if c != 1:
                inv = 1 / c
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

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

    def to_laurent(self) -> QLaurent:
        if self.den != _ONE:
            raise ExactnessError(f"({self}) is not a Laurent polynomial")
        return self.num

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: object) -> "QRatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            if self.den == _ONE:
                return QRatFunc._make(self.num + other.num, _ONE)
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
        if self.den == _ONE and other.den == _ONE:
            return QRatFunc._make(self.num * other.num, _ONE)
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
        return QRatFunc._make(self.num**n, self.den**n) if self.den == _ONE else QRatFunc(self.num**n, self.den**n)

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

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: Mapping) -> "QRatFunc":
        return cls(QLaurent.from_json(data["num"]), QLaurent.from_json(data["den"]))


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
