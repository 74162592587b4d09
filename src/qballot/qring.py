"""The ring Z[q, q^-1]: Laurent polynomials in q with integer coefficients.

Everything downstream reduces to identities between elements of this ring or
its fraction field (`qlaurent`), so the arithmetic is deliberately exact:
coefficients are Python ints and no floating point ever enters.  A
`QLaurent` refuses a non-int coefficient, a `fractions.Fraction` included,
with TypeError; a rational scalar is a `qlaurent.QRatFunc` over an integer
denominator.

`QLaurent` stores one dense run: an offset `lo` and a tuple `cs` of the
coefficients of q^lo .. q^hi, with nonzero first and last entries (zero is
the empty run at lo = 0); exponents may be negative.  Interior zeros are
stored, so storage grows with max_exp - min_exp rather than with the number
of terms.  That suits every polynomial the package computes with (ballot
rows, [d]_q!, the Theorem 1 columns are all dense); the only gapped ones it
builds are monomials and q^d - 1 inside `cyclotomic`.  Values are immutable
and hashable; equality is structural, which is sound because construction
always canonicalizes.

The integer ballot number `ballot(n, k)` is defined here too, beside the
ring rather than with the q-ballot table in `ballot`: the Theorem 1 columns
(`sweep`) read it to size their packed integers, so a cold `conjecture`
compiles no table, and `ballot` imports it back for the check of a
`--cache` file.

This module is a leaf: it imports nothing from the package.  The ballot
commands (`ballot`, `table`, `catalan`) run on this ring alone, so a cold
process that runs one compiles neither the gcd nor the fraction field.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
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
ZERO = _ZERO
ONE = _ONE


def ballot(n: int, k: int) -> int:
    """The ballot number (n-k+1)/(n+1) * C(n+k, k), an integer; 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("ballot needs n, k >= 0")
    if k > n:
        return 0
    return (n - k + 1) * comb(n + k, k) // (n + 1)
