"""q-integers, [d]_q! and its cyclotomic factors, on integer runs.

This is the part of the q-calculus that the conjecture sweep runs: [n]_q
and [n]_q! (`q_int`, `q_factorial`), the cyclotomic polynomials
(`cyclotomic`), the sieve that reduces integer columns over [d]_q! to
lowest terms (`reduce_by_qfactorial`), the O(len) passes that multiply and
divide by [j]_q (`_qint_mul`, `_qint_div`), the Newton-Horner core that
turns packed q-binomial coordinates into [d]_q!-scaled x-columns
(`newton_horner`, with its width `column_bytes` and packing), and the dense
exact division in Z[q] they share (`_divexact_dense`).  It is a leaf over
the ring `qring`, so a cold `conjecture` compiles neither `qcore` nor
`qlaurent`; those modules, `csequence` and `analysis` import the names
they read back from here.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, chain, count, repeat
from math import comb
from operator import lshift, sub
from typing import Sequence

from .qring import ONE, Q, ZERO, ExactnessError, QLaurent, _run


# -- q-integers, factorials, cyclotomic polynomials ---------------------------


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
def cyclotomic(d: int) -> QLaurent:
    """The d-th cyclotomic polynomial, via (q^d - 1) / prod of lower ones."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = Q**d - ONE
    for e in range(1, d):
        if d % e == 0:
            quot = _divexact_dense(num.cs, cyclotomic(e).cs)
            if quot is None:
                raise ExactnessError(f"({num}) is not divisible by ({cyclotomic(e)})")
            num = _run(0, quot)
    return num


@cache
def _cyclo_at2(d: int) -> int:
    return cyclotomic(d).eval_at(2)


# -- the [d]_q! sieve ---------------------------------------------------------


def reduce_by_qfactorial(
    cols: Sequence[QLaurent], d: int
) -> tuple[tuple[QLaurent, ...], QLaurent]:
    """cols[k] / [d]_q! over one shared denominator in lowest terms, as
    (reduced columns, denominator).

    [d]_q! factors as prod over e >= 2 of Phi_e^floor(d/e), and each Phi_e
    is irreducible over Q, so dividing out every Phi_e that divides every
    column, up to its power in [d]_q!, yields exactly the lowest terms.  An
    integer evaluation at q = 2 filters hopeless division attempts cheaply.
    Phi_e is primitive, so by Gauss's lemma it divides an integer column in
    Z[q] iff it does in Q[q].  A set with no nonzero column has nothing to
    divide and comes back over [d]_q!.
    """
    cols = tuple(cols)
    live = [(i, col) for i, col in enumerate(cols) if col]
    if not live:
        return cols, q_factorial(d)
    # The sieve divides the runs read from each column's lowest term.
    runs = [col.cs for _, col in live]
    vals2 = [sum(map(lshift, run, count())) for run in runs]
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
    for (i, col), run in zip(live, runs):
        out[i] = _run(col.lo, run)
    return tuple(out), _run(0, den)


def _divexact_all(runs: list[Sequence[int]], b: Sequence[int]) -> list[list] | None:
    """Every run divided exactly by b, or None at the first remainder."""
    out = []
    for a in runs:
        quot = _divexact_dense(a, b)
        if quot is None:
            return None
        out.append(quot)
    return out


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
            c, r = divmod(c, b0)
            if r:
                return None
            quot[k] = c
            for j, bc in enumerate(b):
                rem[k + j] -= c * bc
    return None if any(rem) else quot


# Multiplying and dividing by [j]_q = 1 + q + ... + q^(j-1) are O(len)
# passes over the coefficient run rather than O(len * j) schoolbook
# products: q_factorial, q_stirling and the recurrence construction use
# them.  (newton_horner needs neither: it works on (1 - q)[j]_q = 1 - q^j.)


def _qint_mul(p: QLaurent, j: int) -> QLaurent:
    """p * [j]_q for j >= 0, as a width-j window sum over prefix sums."""
    if j <= 0 or not p:
        return ZERO
    a, pad = p.cs, [0] * (j - 1)
    # s[i + j] - s[i] = a[i - j + 1] + ... + a[i], with a[<0] = 0
    s = pad + list(accumulate(chain(a, pad), initial=0))
    return _run(p.lo, list(map(sub, s[j:], s[: len(a) + j - 1])))


def _qint_div(p: QLaurent, j: int) -> QLaurent:
    """The exact quotient p / [j]_q for j >= 1; ExactnessError when there is
    none.

    [j]_q = (1 - q^j)/(1 - q): one difference pass multiplies by 1 - q, and
    a prefix sum over each residue class mod j divides by 1 - q^j.  The
    last j sums are the class totals, which add up to (p (1 - q))(1) = 0, so
    the quotient is exact iff the top j - 1 of them are 0.
    """
    if j < 1:
        raise ValueError("_qint_div needs j >= 1")
    if j == 1 or not p:
        return p
    a = p.cs
    d = list(map(sub, chain(a, (0,)), chain((0,), a)))
    for r in range(j):
        d[r::j] = accumulate(d[r::j])
    if any(d[-(j - 1):]):
        raise ExactnessError(f"({p}) is not divisible by [{j}]_q")
    return _run(p.lo, d[:-j])


# -- the Newton-Horner core ---------------------------------------------------


def newton_horner(vs: Sequence[int], lo: int, nbytes: int) -> tuple[QLaurent, ...]:
    """The integer x-columns of [d]_q! * sum_j b_j {x choose j}_q, d =
    len(vs) - 1, from vs[j] = b_j q^-lo packed at q = 2^w, w = 8 nbytes.

    The sum is computed times (1-q)^d in y = (1-q)x.  There (1-q)[i]_q =
    1 - q^i and (1-q)(x - [l]_q) = y - (1 - q^l), so on packed integers
    every factor is one shift and one subtract.  The y-columns r_k =
    cols[k] (1-q)^(d-k) are the only values unpacked, so w must hold
    `_column_bound` of the b_j and a sign bit (`column_bytes`); then their
    signed digits are exact.  q -> 2^w is a ring map, so no other value
    needs to fit, the packed b_j included.  Each column is r_k divided d-k
    times by 1-q.
    """
    d = len(vs) - 1
    w = 8 * nbytes
    # e_j = b_j (1 - q^(j+1))...(1 - q^d)
    es = []
    for j, v in enumerate(vs):
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
        cols.append(_run(lo + z, cs))
    return tuple(cols)


def column_bytes(norms: Sequence[int]) -> int:
    """The bytes per digit for `newton_horner` on coordinates whose L1 norms
    are norms: `_column_bound`, a sign bit and a spare bit, rounded up."""
    return (_column_bound(norms).bit_length() + 9) // 8


def _column_bound(norms: Sequence[int]) -> int:
    """B = max_k 2^(d-k) sum_{j>=k} norms[j] C(j, k), d = len(norms) - 1.

    With norms[j] the L1 norm of integer coordinate b_j, B bounds every
    coefficient of the y-column r_k of `newton_horner`: r_k sums, over
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

    Adding the top bits lifts every digit by 2^(w-1) into [0, 2^w) with no
    carry; each is read unsigned and lowered back.  n covers every digit: if
    v has m, the lower ones take at most 2^(w-1)/(2^w-1) < 3/4 of the top
    one's weight 2^(w(m-1)) off |v|, so its bit length is at least
    w(m-1) - 1.
    """
    w = 8 * nbytes
    n = (abs(v).bit_length() + 1) // w + 1
    raw = (v + _top_bits(nbytes, n)).to_bytes(n * nbytes, "little")
    read = int.from_bytes
    lifted = [read(raw[i:i + nbytes], "little") for i in range(0, n * nbytes, nbytes)]
    return list(map(sub, lifted, repeat(1 << (w - 1))))


def _top_bits(nbytes: int, n: int) -> int:
    """2^(w-1) (1 + 2^w + ... + 2^(w(n-1))), w = 8 nbytes: the sign bits of
    n digits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
