"""The interpolating polynomial family C_n(x|q).

C_1 = 1 and each C_{n+1} is pinned down by a first-order q-difference
equation together with the side condition C_{n+1}(-1/q) = 0.  Three
independent constructions are provided:

* ``c_difference`` — solve the q-difference equation directly.  The Hahn
  operator acts as a shift on the q-binomial basis {x choose k}_q, so the
  antidifference is a reindexing; the free constant comes from the
  vanishing condition.
* ``c_theorem1`` — closed-form expansion whose q-binomial coefficients
  are reversed weighted-ballot polynomials.  Its integer columns,
  ``theorem1_columns``, live in the leaf ``sweep`` with the conjecture
  sweep that reads them; here they are reduced over [n]_q!.
* ``c_recurrence`` — a three-term-with-tail recurrence whose division by
  [n]_q must be exact (checked; a failure would mean an internal bug).

All three agree; the test-suite pins that down.  Evaluation at
q-integers, the q = 1 closed form, and the shifted expansion of
C_n(qx+1|q) round out the module.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial
from typing import Iterator, Sequence

from .ballot import tilde_f, tilde_qcatalan
from .qcore import (
    XPoly,
    _subst_laurent,
    columns_over_qfactorial,
    from_qbinom_coords,
    q_int,
    qbinom_coords,
)
from .qlaurent import QRatFunc, RF_ONE, RF_ZERO, lowest_terms, ql_divexact
from .qring import ONE, Q, ZERO, ExactnessError, QLaurent
from .report import METHODS
from .sweep import theorem1_columns

_Q_SQUARED = QLaurent.monomial(2)
_ONE_PLUS_Q = ONE + Q


class CFamily:
    """C_1 .. C_nmax as built by one method; ``poly(n)`` returns C_n(x|q)."""

    __slots__ = ("method", "polys")

    def __init__(self, method: str, polys: tuple[XPoly, ...]) -> None:
        self.method = method
        self.polys = polys

    def poly(self, n: int) -> XPoly:
        if not 1 <= n <= len(self.polys):
            raise IndexError(f"family holds C_1..C_{len(self.polys)}, asked for C_{n}")
        return self.polys[n - 1]

    def __getitem__(self, n: int) -> XPoly:
        return self.poly(n)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self) -> Iterator[XPoly]:
        return iter(self.polys)


_C1 = XPoly.const(RF_ONE)


def _difference_step(cur: XPoly) -> XPoly:
    # Coordinates of q C_n(q^2 x + 1 + q) over den, shifted up: b_1, b_2, ...
    cols = _subst_laurent(cur.nums, _Q_SQUARED, _ONE_PLUS_Q)
    coords, den = lowest_terms(qbinom_coords(cols), cur.den)
    bs = [c.shifted(1) for c in coords]
    # {-1/q choose j}_q = (-q)^{-j} (each factor -1/q - [i]_q is -[i+1]_q/q),
    # so C_{n+1}(-1/q) = 0 fixes b_0 = sum_{j>=1} (-1)^(j-1) q^(-j) b_j.
    b0 = sum(((b if j % 2 else -b).shifted(-j) for j, b in enumerate(bs, 1)), ZERO)
    return from_qbinom_coords([b0, *bs], den)


def c_difference(nmax: int) -> CFamily:
    """Build C_1..C_nmax from the q-difference equation.

    Each step, on Laurent columns: apply the equation's affine substitution,
    expand in the q-binomial basis, reduce once (`lowest_terms`), shift
    indices up by one (the antidifference), and solve the constant term
    from C_{n+1}(-1/q) = 0 using {-1/q choose j}_q = (-q)^{-j}.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    polys = [_C1]
    while len(polys) < nmax:
        polys.append(_difference_step(polys[-1]))
    return CFamily("difference", tuple(polys))


def _x_shift_coords(c: list[QLaurent]) -> list[QLaurent]:
    # x * {x choose j}_q = [j+1]_q {x choose j+1}_q + [j]_q {x choose j}_q,
    # so in coordinates (x*f)[j] = [j]_q (c[j-1] + c[j]).
    out: list[QLaurent] = []
    for j in range(len(c) + 1):
        s = ZERO
        if j < len(c):
            s = s + c[j]
        if j >= 1:
            s = s + c[j - 1]
        out.append(q_int(j) * s)
    return out


def _recurrence_step(coords: list[tuple[QLaurent, ...]]) -> tuple[QLaurent, ...]:
    n = len(coords)
    cn = list(coords[-1])
    head_a = q_int(2 * n - 1)
    rhs = _x_shift_coords(cn)
    rhs = [t.shifted(2 * n - 1) for t in rhs]
    for j, t in enumerate(cn):
        rhs[j] = rhs[j] + head_a * t
    for j in range(n - 1):
        scal = (q_int(n - j - 1) * tilde_qcatalan(j)).shifted(2 * j + 1)
        lower = coords[n - j - 1]
        for i, t in enumerate(lower):
            rhs[i] = rhs[i] + scal * t
    divisor = q_int(n)
    try:
        return tuple(ql_divexact(t, divisor) for t in rhs)
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
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    # q-binomial coordinates of C_1..C_n (entry n-1 has length n), kept so
    # that later steps never re-convert.
    coords: list[tuple[QLaurent, ...]] = [(ONE,)]
    while len(coords) < nmax:
        coords.append(_recurrence_step(coords))
    return CFamily("recurrence", (_C1, *map(from_qbinom_coords, coords[1:])))


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
    return columns_over_qfactorial(theorem1_columns(n), n)


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
        return CFamily("theorem1", tuple(c_theorem1(n - 1) for n in range(1, nmax + 1)))
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


# -- evaluation at q-integers -------------------------------------------------


def c_eval_qint(n: int, k: int) -> QLaurent:
    """C_{n+1}([k]_q | q) = tilde_f(k+n, n) = q^(kn + n(n+1)/2) f(k+n, n | 1/q).

    Returns the closed form and cross-checks it against the columns of
    c_theorem1(n) = nums / den: in Z[q, q^-1], sum_i nums[i] [k]_q^i must
    equal den times the closed form, so no reduction is needed.  A
    mismatch would be an internal bug.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    val = tilde_f(k + n, n)
    c = c_theorem1(n)
    node = q_int(k)
    acc = ZERO
    for col in reversed(c.nums):
        acc = acc * node + col
    if acc != c.den * val:
        raise ExactnessError(
            f"q-integer evaluation disagrees with the polynomial at n={n}, k={k}"
        )
    return val


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


def format_qbinom(coeffs: Sequence[QRatFunc]) -> str:
    """Render q-binomial coordinates as '(1+q) + (q+q^2+q^3)*qbinom(x,1) + ...'."""
    parts = []
    for j, c in enumerate(coeffs):
        if c == RF_ZERO:
            continue
        cs = str(c)
        if ("+" in cs.lstrip("-") or "-" in cs.lstrip("-")) and not cs.startswith("("):
            cs = f"({cs})"
        parts.append(cs if j == 0 else f"{cs}*qbinom(x,{j})")
    return " + ".join(parts) if parts else "0"
