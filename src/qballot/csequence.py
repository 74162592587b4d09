"""The interpolating polynomial family C_n(x|q).

C_1 = 1 and each C_{n+1} is pinned down by a first-order q-difference
equation together with the side condition C_{n+1}(-1/q) = 0.  Three
independent constructions are provided:

* ``c_difference`` — solve the q-difference equation on the Laurent
  coordinates in the q-binomial basis {x choose k}_q.  There the Hahn
  operator is a shift, so the antidifference is a reindexing, and by the
  q-Pascal identity x -> 1 + qx is a two-term map; the free constant
  comes from the vanishing condition.
* ``c_theorem1`` — closed-form expansion whose q-binomial coefficients
  are reversed weighted-ballot polynomials.  Its integer columns,
  ``theorem1_columns``, live in the leaf ``sweep`` with the conjecture
  sweep that reads them; here they are reduced over [n]_q!.
* ``c_recurrence`` — a three-term-with-tail recurrence whose division by
  [n]_q must be exact (checked; a failure would mean an internal bug).

The difference and recurrence constructions grow coordinates through one
builder, ``_grow``, each with its own step; a ``CFamily`` keeps every
member's Laurent coordinates and converts one only when it is asked for.
All three agree; the test-suite pins that down.  Evaluation at q-integers,
the q = 1 closed form and the expansion of C_n(qx+1|q) round out the module.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import comb, factorial
from typing import Iterator, Sequence

from .ballot import tilde_f, tilde_qcatalan
from .qcore import XPoly, from_qbinom_coords
from .qcyclo import _qint_div, _qint_mul, q_factorial
from .qlaurent import QRatFunc, RF_ONE
from .qring import ONE, ZERO, ExactnessError, QLaurent
from .report import METHODS
from .sweep import theorem1_columns


class CFamily:
    """C_1 .. C_nmax, the same polynomials whichever method built them,
    held as Laurent q-binomial coordinates; ``poly(n)`` converts C_n(x|q)
    with ``from_qbinom_coords`` each time it is asked."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[tuple[QLaurent, ...], ...]) -> None:
        self.coords = coords

    def poly(self, n: int) -> XPoly:
        if not 1 <= n <= len(self.coords):
            raise IndexError(f"family holds C_1..C_{len(self.coords)}, asked for C_{n}")
        return from_qbinom_coords(self.coords[n - 1])

    def __getitem__(self, n: int) -> XPoly:
        return self.poly(n)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[XPoly]:
        return map(from_qbinom_coords, self.coords)


def _grow(step, nmax: int) -> CFamily:
    """C_1..C_nmax as q-binomial coordinates: C_1 = 1, and each `step`
    maps the coordinates of C_1..C_n to those of C_{n+1}.  No member is
    converted here."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    coords: list[tuple[QLaurent, ...]] = [(ONE,)]
    while len(coords) < nmax:
        coords.append(step(coords))
    return CFamily(tuple(coords))


def _pascal(c: Sequence[QLaurent]) -> list[QLaurent]:
    # {1 + qx choose j}_q = q^j {x choose j}_q + q^(j-1) {x choose j-1}_q,
    # so in coordinates f(1 + qx)[i] = q^i (c[i] + c[i+1]).
    return [(a + b).shifted(i) for i, (a, b) in enumerate(zip(c, [*c[1:], ZERO]))]


def _difference_step(coords: Sequence[Sequence[QLaurent]]) -> tuple[QLaurent, ...]:
    # q^2 x + 1 + q is x -> 1 + qx applied twice, so the coordinates of
    # q C_n(q^2 x + 1 + q), shifted up by the antidifference, are b_1, b_2, ...
    bs = [b.shifted(1) for b in _pascal(_pascal(coords[-1]))]
    # {-1/q choose j}_q = (-q)^{-j} (each factor -1/q - [i]_q is -[i+1]_q/q),
    # so C_{n+1}(-1/q) = 0 fixes b_0 = sum_{j>=1} (-1)^(j-1) q^(-j) b_j.
    b0 = sum(((b if j % 2 else -b).shifted(-j) for j, b in enumerate(bs, 1)), ZERO)
    return (b0, *bs)


def c_difference(nmax: int) -> CFamily:
    """Build C_1..C_nmax from the q-difference equation.

    Each step works on the Laurent q-binomial coordinates of C_n: apply the
    two-term map of x -> 1 + qx twice (that is x -> q^2 x + 1 + q), multiply
    by q, shift indices up by one (the antidifference), and solve the
    constant term from C_{n+1}(-1/q) = 0 using {-1/q choose j}_q = (-q)^{-j}.
    """
    return _grow(_difference_step, nmax)


def _x_shift_coords(c: Sequence[QLaurent]) -> list[QLaurent]:
    # x * {x choose j}_q = [j+1]_q {x choose j+1}_q + [j]_q {x choose j}_q,
    # so in coordinates (x*f)[j] = [j]_q (c[j-1] + c[j]).
    return [_qint_mul(a + b, j) for j, (a, b) in enumerate(zip([ZERO, *c], [*c, ZERO]))]


def _recurrence_step(coords: Sequence[Sequence[QLaurent]]) -> tuple[QLaurent, ...]:
    n = len(coords)
    cn = coords[-1]
    rhs = _x_shift_coords(cn)
    rhs = [t.shifted(2 * n - 1) for t in rhs]
    for j, t in enumerate(cn):
        rhs[j] = rhs[j] + _qint_mul(t, 2 * n - 1)
    for j in range(n - 1):
        scal = _qint_mul(tilde_qcatalan(j), n - j - 1).shifted(2 * j + 1)
        lower = coords[n - j - 1]
        for i, t in enumerate(lower):
            rhs[i] = rhs[i] + scal * t
    try:
        return tuple(_qint_div(t, n) for t in rhs)
    except ExactnessError as exc:  # pragma: no cover - would be an internal bug
        raise ExactnessError(
            f"recurrence coordinate not divisible by [{n}]_q: {exc}"
        ) from exc


def c_recurrence(nmax: int) -> CFamily:
    """Build C_1..C_nmax from the [n]_q-weighted recurrence.

    [n]_q C_{n+1} = ([2n-1]_q + x q^{2n-1}) C_n
                    + sum_{j=0}^{n-2} [n-j-1]_q Ct_j(q) q^{2j+1} C_{n-j},

    worked in q-binomial coordinates where multiplication by x is the
    two-term shift [j]_q (c[j-1] + c[j]).  Every coordinate of the right
    side must divide exactly by [n]_q; a remainder raises ExactnessError.
    Each product with a q-integer and the division by [n]_q are O(len)
    passes (`_qint_mul`, `_qint_div`); only the products of the weights
    [n-j-1]_q Ct_j(q) q^{2j+1} with lower coordinates are schoolbook.
    """
    return _grow(_recurrence_step, nmax)


def theorem1_qbinom_coeffs(n: int) -> tuple[QLaurent, ...]:
    """q-binomial coordinates of C_{n+1}(x|q): entry j is
    tilde_f(n+j, n-j) * q^(j^2), that is f(n+j, n-j | 1/q) *
    q^(jn + (n-j)(n+j+1)/2), a Laurent polynomial."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(tilde_f(n + j, n - j).shifted(j * j) for j in range(n + 1))


@cache
def c_theorem1(n: int) -> XPoly:
    """C_{n+1}(x|q) assembled from reversed ballot polynomials."""
    return XPoly._make(theorem1_columns(n), q_factorial(n))


def c_shifted_theorem1(n: int) -> XPoly:
    """C_n(qx+1|q): the companion expansion with coordinates
    tilde_f(n+j, n-1-j) * q^(j(j+1)), that is f(n+j, n-1-j | 1/q) *
    q^(jn + n(n+1)/2 - (j+1)(j+2)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return from_qbinom_coords([tilde_f(n + j, n - 1 - j).shifted(j * (j + 1)) for j in range(n)])


def c_family(method: str, nmax: int) -> CFamily:
    """The family C_1..C_nmax by name: difference, theorem1, or recurrence."""
    if method == "difference":
        return c_difference(nmax)
    if method == "recurrence":
        return c_recurrence(nmax)
    if method == "theorem1":
        if nmax < 1:
            raise ValueError("nmax must be >= 1")
        return CFamily(tuple(map(theorem1_qbinom_coeffs, range(nmax))))
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


# -- evaluation at q-integers -------------------------------------------------


def c_eval_qint(n: int, k: int) -> QLaurent:
    """C_{n+1}([k]_q | q) = tilde_f(k+n, n) = q^(kn + n(n+1)/2) f(k+n, n | 1/q).

    Returns the closed form and cross-checks it against the columns of
    c_theorem1(n) = nums / den: in Z[q, q^-1], sum_i nums[i] [k]_q^i must
    equal den times the closed form, so no reduction is needed.  The check
    is one equality of integers, both sides evaluated at a power of two
    wide enough that it is the polynomial equality (`_holds_at_qint`).  A
    mismatch would be an internal bug.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    val = tilde_f(k + n, n)
    c = c_theorem1(n)
    if not _holds_at_qint(c.nums, c.den, val, k):
        raise ExactnessError(
            f"q-integer evaluation disagrees with the polynomial at n={n}, k={k}"
        )
    return val


def _holds_at_qint(
    nums: Sequence[QLaurent], den: QLaurent, val: QLaurent, k: int
) -> bool:
    """Is sum_i nums[i] [k]_q^i = den * val in Z[q, q^-1]?

    Both sides, times q^-lo for the lowest exponent lo either has, are
    polynomials, compared as their values at q = 2^w.  Each coefficient of
    their difference is at most B = sum_i |nums[i]|_1 k^i + |den|_1 |val|_1
    in absolute value (|.|_1 the sum of absolute coefficients, and
    |[k]_q^i|_1 = k^i), and w >= bit_length(B) + 1, so each lies strictly
    inside +-2^(w-1).  A nonzero difference then cannot vanish at 2^w: its
    lowest coefficient is no multiple of 2^w.  So the integers are equal iff
    the polynomials are.  Every coefficient packed is at most B as well.
    """
    cols = nums if k else nums[:1]  # [0]_q = 0: only the constant column counts
    rhs_live = bool(den and val)
    bound = sum(_l1(c) * k**i for i, c in enumerate(cols)) + _l1(den) * _l1(val)
    nbytes = (bound.bit_length() + 8) // 8
    w = 8 * nbytes
    los = [c.lo for c in cols if c] + ([den.lo + val.lo] if rhs_live else [])
    if not los:
        return True  # both sides are 0
    lo = min(los)
    node = ((1 << k * w) - 1) // ((1 << w) - 1)  # [k]_q at q = 2^w
    lhs = 0
    for c in reversed(cols):
        lhs = lhs * node + (_at_pow2(c.cs, nbytes) << w * (c.lo - lo) if c else 0)
    rhs = 0
    if rhs_live:
        rhs = _at_pow2(den.cs, nbytes) * _at_pow2(val.cs, nbytes) << w * (den.lo + val.lo - lo)
    return lhs == rhs


def _l1(p: QLaurent) -> int:
    return sum(map(abs, p.cs))


def _at_pow2(run: Sequence[int], nbytes: int) -> int:
    """sum_i run[i] 2^(w i), w = 8 nbytes, for |run[i]| < 2^w: a run with a
    negative entry is its positive part minus its negative part, and each
    nonnegative run is read as one unsigned byte string."""
    if min(run) < 0:
        return _at_pow2([max(c, 0) for c in run], nbytes) - _at_pow2(
            [max(-c, 0) for c in run], nbytes)
    return int.from_bytes(
        b"".join(map(int.to_bytes, run, repeat(nbytes), repeat("little"))), "little")


# -- the q = 1 specialization -------------------------------------------------


def c_q1(n: int) -> XPoly:
    """C_{n+1}(x|1) = (x+1)(x+n+2)(x+n+3)...(x+2n) / n!: integer columns
    over the integer denominator n! (reduced)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return XPoly.const(RF_ONE)
    poly = XPoly([1, 1])
    for i in range(n + 2, 2 * n + 1):
        poly = poly * XPoly([i, 1])
    return poly * QRatFunc(1, factorial(n))


def c_q1_at_int(n: int, m: int) -> QRatFunc:
    """The binomial form of C_{n+1}(m|1): (m+1)/(m+1+n) * C(m+2n, n), an
    integer over an integer."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    return QRatFunc((m + 1) * comb(m + 2 * n, n), m + 1 + n)


# -- rendering ----------------------------------------------------------------


def format_qbinom(coeffs: Sequence[QLaurent | QRatFunc]) -> str:
    """Render q-binomial coordinates, Laurent or in Q(q), as
    '(1+q) + (q+q^2+q^3)*qbinom(x,1) + ...'."""
    parts = []
    for j, c in enumerate(coeffs):
        if not c:
            continue
        cs = str(c)
        if ("+" in cs.lstrip("-") or "-" in cs.lstrip("-")) and not cs.startswith("("):
            cs = f"({cs})"
        parts.append(cs if j == 0 else f"{cs}*qbinom(x,{j})")
    return " + ".join(parts) if parts else "0"
