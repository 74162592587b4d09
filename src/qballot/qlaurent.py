"""Exact arithmetic in q: Laurent polynomials and reduced rational functions.

Everything downstream reduces to identities between elements of Z[q, q^-1]
or its fraction field, so this module is deliberately exact: coefficients
are Python ints and no floating point ever enters.  A rational number is an
integer polynomial over an integer denominator, as `QRatFunc(1, 2)`; a
`QLaurent` refuses a non-int coefficient, a `fractions.Fraction` included,
with TypeError.

Representation invariants:

* `QLaurent` stores one dense run: an offset `lo` and a tuple `cs` of the
  coefficients of q^lo .. q^hi, with nonzero first and last entries (zero
  is the empty run at lo = 0); exponents may be negative.  Interior zeros
  are stored, so storage grows with max_exp - min_exp rather than with the
  number of terms.  That suits every polynomial the package computes with
  (ballot rows, [d]_q!, the Theorem 1 columns are all dense); the only
  gapped ones it builds are monomials and q^d - 1 inside `cyclotomic`.
* `QRatFunc` stores a pair num/den of `QLaurent` with den a polynomial
  (no negative exponents) with a positive leading coefficient and no common
  factor with num: no polynomial factor, and no integer one (the gcd of all
  their coefficients is 1).  Monomial factors q^m are kept in the
  numerator, so the denominator always has a nonzero constant term.  That
  form is `lowest_terms` with one column; `qcore.XPoly` keeps its columns
  over one shared denominator in the same form.

Both types are immutable and hashable; equality is structural, which is
sound because construction always canonicalizes.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd as _int_gcd
from operator import add, mul, neg, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

if TYPE_CHECKING:  # annotations only: importing fractions loads decimal
    from fractions import Fraction


class ExactnessError(ArithmeticError):
    """A division that theory guarantees to be exact left a remainder."""


def _int_coeff(c: object) -> int:
    # An int subclass (bool, say) is stored as a plain int.
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"QLaurent coefficients are ints, got {c!r}; a rational "
                    "scalar is a QRatFunc over an integer denominator")


class QLaurent:
    """A Laurent polynomial in q with integer coefficients.

    `cs[i]` is the coefficient of q^(lo + i): a tuple of ints with nonzero
    first and last entries, and zero is the empty run at lo = 0.  Both are
    read-only.
    """

    __slots__ = ("lo", "cs")

    def __init__(self, terms: Union[Mapping[int, int], Iterable[tuple[int, int]], None] = None):
        data: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for e, c in items:
                if type(c) is not int:
                    c = _int_coeff(c)
                if c:
                    data[e] = data.get(e, 0) + c
        lo = min(data, default=0)
        cs = [0] * (max(data) - lo + 1) if data else []
        for e, c in data.items():
            cs[e - lo] = c
        p = _run(lo, cs)
        self.lo, self.cs = p.lo, p.cs

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return _ZERO

    @classmethod
    def one(cls) -> "QLaurent":
        return _ONE

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "QLaurent":
        c = _int_coeff(coeff)
        return _raw(int(exp), (c,)) if c else _ZERO

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

    def coeff(self, exp: int) -> int:
        i = exp - self.lo
        return self.cs[i] if 0 <= i < len(self.cs) else 0

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple((e, c) for e, c in enumerate(self.cs, self.lo) if c)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.items())

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return len(self.cs) - self.cs.count(0)

    @property
    def leading_coeff(self) -> int:
        return self.coeff(self.max_exp)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: object) -> "QLaurent":
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, add)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return _raw(self.lo, tuple(map(neg, self.cs)))

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
        lo = self.lo + other.lo
        a, b = (self.cs, other.cs) if len(self.cs) <= len(other.cs) else (other.cs, self.cs)
        # The end terms of the product are the products of the end terms,
        # nonzero in Z, so no result needs trimming.
        if len(a) == 1:
            c = a[0]
            if c == 1:
                return _raw(lo, b)
            return _raw(lo, tuple(map(mul, b, repeat(c))))
        # Schoolbook: one shifted, scaled copy of b per nonzero term of a.
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + m] = map(add, out[i:i + m], map(mul, b, repeat(c)))
        return _raw(lo, tuple(out))

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
        return _raw(self.lo + m, self.cs)

    def subs_q_inverse(self) -> "QLaurent":
        """The substitution q -> 1/q; an involution and a ring homomorphism."""
        if not self.cs:
            return self
        return _raw(1 - self.lo - len(self.cs), self.cs[::-1])

    def eval_at(self, v: int | Fraction) -> int | Fraction:
        """Evaluate at q = v exactly: an int when v is an int and no exponent
        is negative, a `fractions.Fraction` otherwise.  v = 0 with negative
        exponents is rejected."""
        if v == 0:
            if self.lo < 0:
                raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
            return self.coeff(0)
        total = 0
        for c in reversed(self.cs):
            total = total * v + c
        if self.lo >= 0 and isinstance(v, int):
            return total * v**self.lo
        from fractions import Fraction

        return total * Fraction(v) ** self.lo

    # -- content and primitive part -------------------------------------------

    def content(self) -> int:
        """The gcd of the coefficients: positive, and 0 for zero."""
        return _int_gcd(*self.cs)

    def primitive(self) -> "QLaurent":
        """self / content(): content 1, same sign pattern."""
        c = self.content()
        return self if c < 2 else _divided(self, c)

    # -- comparison, hashing, display -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return self.lo == other.lo and self.cs == other.cs
        if isinstance(other, int):
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
                body = str(c)
            else:
                var = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = "-" + var
                else:
                    body = f"{c}{var}"
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


def _raw(lo: int, cs: tuple) -> QLaurent:
    # Internal: cs must already be a canonical run of ints.
    p = _new(QLaurent)
    p.lo, p.cs = lo, cs
    return p


def _run(lo: int, cs: Sequence[int]) -> QLaurent:
    """The QLaurent sum_i cs[i] q^(lo+i) of ints cs, with zero ends trimmed."""
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    if not hi:
        return _ZERO
    i = 0
    while not cs[i]:
        i += 1
    return _raw(lo + i, tuple(cs[i:hi]))


def _combine(a: QLaurent, b: QLaurent, op) -> QLaurent:
    """a + b or a - b, for op operator.add or operator.sub."""
    if not b.cs:
        return a
    if not a.cs:
        return b if op is add else -b
    if len(a.cs) == len(b.cs) == 1 and a.lo == b.lo:  # two terms at one exponent
        c = op(a.cs[0], b.cs[0])
        return _raw(a.lo, (c,)) if c else _ZERO
    lo = min(a.lo, b.lo)
    ia, ib = a.lo - lo, b.lo - lo
    end = ib + len(b.cs)
    out = [0] * max(ia + len(a.cs), end)
    out[ia:ia + len(a.cs)] = a.cs
    out[ib:end] = map(op, out[ib:end], b.cs)
    return _run(lo, out)


def _divided(p: QLaurent, g: int) -> QLaurent:
    """p / g for a nonzero int g that divides every coefficient of p."""
    return _raw(p.lo, tuple([c // g for c in p.cs]))


def _coerce_laurent(x: object):
    if isinstance(x, QLaurent):
        return x
    if isinstance(x, int):
        return _raw(0, (int(x),)) if x else _ZERO
    return NotImplemented


_new = object.__new__
_ZERO = _raw(0, ())
_ONE = _raw(0, (1,))
Q = _raw(1, (1,))


# -- gcd and exact division over Z[q, q^-1] -----------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


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
        return _raw(0, g if g[-1] > 0 else tuple(map(neg, g)))
    # Both runs are read upward from their lowest term, so q divides neither.
    da, db = a.primitive().cs, b.primitive().cs
    if len(da) < len(db):
        da, db = db, da
    # Primitive polynomial remainder sequence: strip integer content each
    # step to keep coefficient growth in check.
    while db:
        r = _pseudo_rem(da, db)
        c = _int_gcd(*r)
        if c > 1:
            r = [x // c for x in r]
        da, db = db, r
    if da[-1] < 0:
        da = [-c for c in da]
    return _run(0, da)


def ql_divexact(a: QLaurent, b: QLaurent) -> QLaurent:
    """Exact quotient a / b in Z[q, q^-1]; raises ExactnessError when there
    is none."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return _ZERO
    quot = _divexact_dense(a.cs, b.cs)
    if quot is None:
        raise ExactnessError(f"({a}) is not divisible by ({b})")
    return _run(a.lo - b.lo, quot)


def _divexact_dense(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Exact quotient in Z[q] of integer runs read from q^0, or None when
    there is none (a remainder, or a quotient coefficient that is not an
    integer).  Needs b[0] != 0; when a[-1] and b[-1] are nonzero, so is the
    quotient's last entry."""
    n = len(a) - len(b) + 1
    if n <= 0:
        return None
    # Ascending synthetic division: term k of the quotient clears rem[k].
    b0 = b[0]
    rem = list(a)
    quot: list[int] = [0] * n
    for k in range(n):
        c = rem[k]
        if c:
            if b0 != 1:
                c, r = divmod(c, b0)
                if r:
                    return None
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

    The returned den is a polynomial with a nonzero constant term and a
    positive leading coefficient, and no factor of Z[q] but 1 divides it and
    every returned column: monomials q^m go to the columns, one gcd fold
    over den and every column (stopping at 1, and skipping the gcd for a
    column the running gcd divides) is divided out, and so is the gcd of the
    contents, signed so that den leads positive.  den keeps the rest of its
    integer content: 1/2 stays 1 over 2.  Equal fraction lists therefore
    have equal forms.  All-zero columns come back over 1; a zero den raises
    ZeroDivisionError.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if not any(nums):
        return tuple(nums), _ONE
    v = den.min_exp
    if v:
        den = den.shifted(-v)
        nums = [c.shifted(-v) for c in nums]
    if len(den.cs) > 1:
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
    # The integer content: all that den and the columns can share when den
    # is a constant.
    g = den.content()
    for c in nums:
        if g == 1:
            break
        g = _int_gcd(g, *c.cs)
    if den.cs[-1] < 0:
        g = -g
    if g != 1:
        nums = [_divided(c, g) for c in nums]
        den = _divided(den, g)
    return tuple(nums), den


class QRatFunc:
    """An element of Q(q) as a canonical reduced fraction num / den.

    num and den may each be a QLaurent, an int, an exact rational such as a
    `fractions.Fraction`, or a QRatFunc.
    """

    __slots__ = ("num", "den")

    def __init__(
        self,
        num: QLaurent | int | Fraction | QRatFunc,
        den: QLaurent | int | Fraction | QRatFunc = _ONE,
    ):
        if type(num) is not QLaurent or type(den) is not QLaurent:
            rn, rd = _coerce_ratfunc(num), _coerce_ratfunc(den)
            if rn is NotImplemented or rd is NotImplemented:
                raise TypeError("QRatFunc expects QLaurent or exact rational arguments")
            num, den = rn.num * rd.den, rn.den * rd.num
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

    def eval_at(self, v: int | Fraction) -> Fraction:
        from fractions import Fraction

        dv = self.den.eval_at(v)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={v}")
        return Fraction(self.num.eval_at(v), dv)

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
    lx = _coerce_laurent(x)
    if lx is not NotImplemented:
        return QRatFunc._make(lx, _ONE)
    # An exact rational, read through its numerator and denominator (the
    # numbers.Rational interface of fractions.Fraction): an int over an int.
    num, den = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if type(num) is int and type(den) is int and den:
        return QRatFunc(num, den)
    return NotImplemented


ZERO = _ZERO
ONE = _ONE
