"""The fraction field of Z[q, q^-1]: gcd, exact division and reduced
rational functions.

The ring itself, `QLaurent` with `Q`, `ZERO`, `ONE` and `ExactnessError`,
lives in the leaf module `qring`; this module builds on it, with the dense
exact division in Z[q] of the leaf `qcyclo`, and is loaded only by the
commands that reduce fractions: `cx`, `verify` and `polytope`.  It keeps the name `qlaurent`, and still binds `QLaurent` and
`ExactnessError`, because code outside the package reaches the gcd, exact
division and fraction field here: `perfbench/layers.py` traces
`QLaurent.__mul__`, `poly_gcd`, `ql_divexact` and `QRatFunc.__init__`
through this module, under the layer names `qlaurent.*`.

`QRatFunc` stores a pair num/den of `QLaurent` with den a polynomial (no
negative exponents) with a positive leading coefficient and no common
factor with num: no polynomial factor, and no integer one (the gcd of all
their coefficients is 1).  Monomial factors q^m are kept in the numerator,
so the denominator always has a nonzero constant term.  That form is
`lowest_terms` with one column; `qcore.XPoly` keeps its columns over one
shared denominator in the same form.  A rational number is an integer
polynomial over an integer denominator, as `QRatFunc(1, 2)`.  Values are
immutable and hashable; equality is structural, which is sound because
construction always canonicalizes.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from operator import neg
from typing import TYPE_CHECKING, Sequence

from .qcyclo import _divexact_dense
from .qring import (
    ExactnessError,
    QLaurent,
    _ONE,
    _ZERO,
    _coerce_laurent,
    _divided,
    _raw,
    _run,
)

if TYPE_CHECKING:  # annotations only: importing fractions loads decimal
    from fractions import Fraction


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
