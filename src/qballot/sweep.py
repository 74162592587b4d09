"""The Theorem 1 numerator route: P_n = [n-1]_q! C_n(x|q) read off its
integer columns, and the conjecture sweep over n.

This is all that `conjecture` runs: the packed pass of the ballot recurrence
into the Newton-Horner core (`theorem1_columns`), the flags on the columns
(`theorem1_numerator`), the per-n verdict the sweep prints (`SweepRow`,
whose pass rule and failure text `conjecture` and `verify conjecture` both
read) and the split of the n over forked children (`_conjecture_rows`).  It
imports only the ring `qring` and the leaf `qcyclo` (the Newton-Horner core
and the `[d]_q!` sieve), so a cold sweep compiles neither the ballot table
(`ballot`), the polynomials in x (`qcore`), the fraction field
(`qlaurent`), the other two `C_n` constructions (`csequence`) nor the
polytope and the verification suites (`analysis`).  Those modules import
the names they read back from here.
"""

from __future__ import annotations

from typing import NamedTuple

from .qcyclo import column_bytes, newton_horner, q_factorial, reduce_by_qfactorial
from .qring import QLaurent, ballot


def theorem1_columns(n: int) -> tuple[QLaurent, ...]:
    """The integer x-columns of [n]_q! C_{n+1}(x|q), lowest x-degree first.

    These are the columns of the numerator P_{n+1}; C_{n+1} itself is their
    quotient by the one shared denominator [n]_q!.  They are
    `qbinom_columns(theorem1_qbinom_coeffs(n))`, computed without the
    ballot table: one rolling pass of the recurrence for A',

        tilde_f(m, k) = q^(m-k) tilde_f(m, k-1) + tilde_f(m-1, k),
        tilde_f(m, 0) = 1,

    works on integers packed at q = 2^w, the width `newton_horner` needs.
    Every tilde_f has lowest term q^0 and positive coefficients, so its L1
    norm is the ballot number it counts, and q -> 2^w is a ring map, so the
    packed rows need not fit in w-bit digits.  Row m keeps k <= 2n - m,
    which is all that rows above it read, and at m = n + j its last entry
    is tilde_f(n+j, n-j), coordinate j before its shift by q^(j^2).

    Nothing is kept between calls, so a sweep holds one column set at a
    time; `c_theorem1` keeps their reduction over [n]_q!.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    nbytes = column_bytes([ballot(n + j, n - j) for j in range(n + 1)])
    w = 8 * nbytes
    row: list[int] = []
    bs = []
    for m in range(2 * n + 1):
        new = [1]
        for k in range(1, min(m, 2 * n - m) + 1):
            new.append((new[-1] << (m - k) * w) + (row[k] if k < m else 0))
        row = new
        if m >= n:
            bs.append(row[-1] << (m - n) ** 2 * w)
    return newton_horner(bs, 0, nbytes)


# -- numerator reports --------------------------------------------------------


class NumeratorReport(NamedTuple):
    """P_n = [1]_q...[n-1]_q * C_n(x|q), column per x-degree.

    The report carries no denominator: C_n is the columns over [n-1]_q!.
    When that denominator does not clear, the columns are those of
    [n-1]_q! * C_n over a leftover shared denominator, not carried either;
    the flags are the authority.
    ``coefficient_stats[k]`` is the (min, max) q-exponent of column k.
    """

    n: int
    numerator: tuple[QLaurent, ...]
    is_polynomial: bool
    is_irreducible_fraction: bool
    all_coeffs_positive: bool
    coefficient_stats: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return (
            self.is_polynomial
            and self.is_irreducible_fraction
            and self.all_coeffs_positive
        )


def theorem1_numerator(n: int) -> NumeratorReport:
    """The report on P_n read straight off the Theorem 1 columns of
    [n-1]_q! C_n(x|q), with no reduction to C_n and no multiplying back.

    `theorem1_columns` keeps nothing, so a sweep holds one column set at a
    time."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cols = theorem1_columns(n - 1)
    return _numerator_report(n, cols, True)


def _numerator_report(n: int, cols: tuple[QLaurent, ...], cleared: bool) -> NumeratorReport:
    # cleared: every column is an exact multiple, i.e. [n-1]_q! * C_n has no
    # leftover denominator.
    is_poly = cleared and all(col.is_zero or col.min_exp >= 0 for col in cols)

    # The fraction is irreducible iff the sieve divides nothing out.
    irreducible = reduce_by_qfactorial(cols, n - 1)[1] == q_factorial(n - 1)

    # Every term of P_n is positive iff no coefficient of a run is
    # negative: the zeros inside a run are not terms.
    positive = all(min(col.cs, default=0) >= 0 for col in cols)

    stats = tuple(
        (0, 0) if col.is_zero else (col.min_exp, col.max_exp) for col in cols
    )
    return NumeratorReport(
        n=n,
        numerator=cols,
        is_polynomial=is_poly,
        is_irreducible_fraction=irreducible,
        all_coeffs_positive=positive,
        coefficient_stats=stats,
    )


class SweepRow(NamedTuple):
    """The fields of theorem1_numerator(n) that the conjecture sweep prints,
    with its verdict: `ok` is `NumeratorReport.ok`, and `failure` spells out
    the three flags."""

    n: int
    is_polynomial: bool
    is_irreducible_fraction: bool
    all_coeffs_positive: bool
    coefficient_stats: tuple[tuple[int, int], ...]

    ok = NumeratorReport.ok

    @property
    def failure(self) -> str:
        return (
            f"polynomial={self.is_polynomial} "
            f"irreducible={self.is_irreducible_fraction} "
            f"positive={self.all_coeffs_positive}"
        )


def _conjecture_rows(ns: list[int]) -> list[SweepRow]:
    """The `SweepRow` of each n of the ascending list ns.

    The n are split over one process per available CPU.  Sorted largest
    first, they are dealt round-robin; this process keeps the first share,
    and each forked child sends its rows back through a pipe as marshal
    data, plain tuples (marshal refuses a tuple subclass), which this
    process rebuilds into rows.  Any fault (an error here, a child that
    exits nonzero, or rows whose n are not the child's share) kills and
    reaps every child, then reruns every n here, so the output, or the
    first error raised, is the serial run's.  With one CPU, no os.fork, or
    a second live thread (a child could inherit one of its locks held), the
    sweep runs serially.

    Each process of the split pins itself to its own CPU of the sorted
    affinity mask, this one to the first for its share: left alone, the
    scheduler can keep a forked child on its parent's CPU.  This process
    gets its mask back before it returns or reruns anything.  A pin is best
    effort: where it is refused, or there is no mask to restore, the
    process runs unpinned.
    """
    import marshal
    import os
    import threading

    def rows(share: list[int]) -> list[SweepRow]:
        return [
            SweepRow(r.n, r.is_polynomial, r.is_irreducible_fraction,
                     r.all_coeffs_positive, r.coefficient_stats)
            for r in map(theorem1_numerator, share)
        ]

    try:
        before = os.sched_getaffinity(0)
        mask = sorted(before)
    except AttributeError:  # the platform has no affinity mask
        before = None
        mask = list(range(os.cpu_count() or 1))
    k = min(len(mask), len(ns))
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return rows(ns)

    def pin(cpus: set[int]) -> bool:
        if before is None:
            return False
        try:
            os.sched_setaffinity(0, cpus)
        except (AttributeError, OSError):
            return False
        return True

    shares = [sorted(ns, reverse=True)[i::k] for i in range(k)]
    children: list[tuple[int, int]] = []  # pid, read end of its pipe
    done = None  # all the rows, once every share's have arrived with the right n
    pinned = False
    try:
        for cpu, share in zip(mask[1:], shares[1:]):
            fd, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(w)
                raise
            if pid == 0:  # the child: send its rows, and never return
                code = 1
                try:
                    pin({cpu})
                    os.close(fd)
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps([tuple(r) for r in rows(share)]))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, fd))
        pinned = pin({mask[0]})
        got = rows(shares[0])
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                got += map(SweepRow._make, marshal.loads(pipe.read()))
        if [r.n for r in got] == [n for share in shares for n in share]:
            done = got
    except Exception:
        pass  # below, once no child is left, the serial rerun raises it again
    finally:
        if pinned:
            pin(before)
        for pid, fd in children:
            os.close(fd)
            if done is None:
                import signal

                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1]:
                done = None
    return rows(ns) if done is None else sorted(done)
