"""Ballot numbers f(n, k), their q-analogues, and q-Catalan polynomials.

f(n, k | q) enumerates lattice paths from (0,0) to (n+1, k) that end with
an east step and never rise above the diagonal y = x, weighted by q^A where
A is the number of unit cells below the path and above the x-axis
(equivalently, the sum of the heights of the east steps).  The polynomials
satisfy

    f(n, k | q) = q f(n, k-1 | q) + q^k f(n-1, k | q),

with f(n, 0 | q) = 1 and f(n, k | q) = 0 for k > n.  Everything else in
this module is a reading of the same table: column sums give the q-Catalan
polynomials, the reversed statistic A' (cells between the path and the
staircase ceiling min(y=x, y=k)) gives the tilde family.

Exhaustive path enumeration is kept alongside the recurrence as an
independent oracle.  Every path meets the anti-diagonal x + y = (n+k)//2
at one point, so the prefixes up to it and the suffixes from it are
enumerated apart and joined by that point, at about the square root of
the cost of walking every path.  It is still exponential in n + k, so it
is capped (default n + k <= 26, override with the QBALLOT_PATH_CAP
environment variable).
"""

from __future__ import annotations

import os
import re
import threading
from fractions import Fraction
from math import comb
from typing import Optional

from .qlaurent import ONE, ZERO, BigRat, ExactnessError, QLaurent, _raw

DEFAULT_PATH_CAP = 26


def path_cap() -> int:
    """Current cap on n + k for exhaustive path enumeration."""
    raw = os.environ.get("QBALLOT_PATH_CAP")
    if raw is None:
        return DEFAULT_PATH_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"QBALLOT_PATH_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"QBALLOT_PATH_CAP must be >= 0, got {raw!r}")
    return cap


def ballot(n: int, k: int) -> BigRat:
    """The ballot number (n-k+1)/(n+1) * C(n+k, k); an integer for 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError("ballot needs n, k >= 0")
    if k > n:
        return Fraction(0)
    return Fraction((n - k + 1) * comb(n + k, k), n + 1)


# A row f(n, k | q), k <= n, is stored as its QLaurent: the dense run of
# its coefficients from q^k up, all of them positive.  Runs are immutable,
# so rows share them (f(n, n) is f(n, n-1) shifted by one).


def _next_row(left: QLaurent, up: Optional[QLaurent], k: int) -> QLaurent:
    """f(n,k) = q f(n,k-1) + q^k f(n-1,k), for k >= 1; up is None when k = n."""
    row = left.shifted(1)
    return row if up is None else row + up.shifted(k)


class BallotTable:
    """Memoized table of f(n, k | q), safe for concurrent readers.

    Writes happen under a single lock; completed entries are immutable
    polynomials, so reading them without the lock is safe.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], QLaurent] = {}
        self._lock = threading.Lock()

    def get(self, n: int, k: int) -> QLaurent:
        if n < 0 or k < 0:
            raise ValueError("qballot needs n, k >= 0")
        if k > n:
            return ZERO
        row = self._entries.get((n, k))
        if row is None:
            with self._lock:
                row = self._fill(n, k)
        return row

    def _fill(self, n: int, k: int) -> QLaurent:
        t = self._entries
        for m in range(n + 1):
            for j in range(min(m, k) + 1):
                if (m, j) in t:
                    continue
                t[(m, j)] = _next_row(t[(m, j - 1)], t.get((m - 1, j)), j) if j else ONE
        return t[(n, k)]

    def known(self) -> dict[tuple[int, int], QLaurent]:
        with self._lock:
            return dict(self._entries)

    # -- persistence (CLI --cache) --------------------------------------------

    SCHEMA = "qballot-table-v2"

    def dump_json(self) -> dict:
        """The table as {"schema", "entries": {"n,k": [lo, [c_lo, ..., c_hi]]}},
        entries in (n, k) order."""
        return self._document(list)

    def _document(self, array) -> dict:
        # array(p.cs) holds each row's coefficients.  json writes a tuple as
        # an array, so save passes tuple and copies no run.
        entries = {f"{n},{k}": [p.lo, array(p.cs)] for (n, k), p in sorted(self.known().items())}
        return {"schema": self.SCHEMA, "entries": entries}

    def load_json(self, data: object) -> int:
        """Add the entries of a dumped table; raises ValueError, and adds
        nothing, unless every entry is well-formed and provably right.

        Entries are proven in (n, k) order.  Each must equal the row that
        f(n,k) = q f(n,k-1) + q^k f(n-1,k) (f(n,0) = 1) gives from rows in
        the table or proven before it, so an entry whose neighbours are
        missing is rejected: the file decides no amount of work, only which
        rows are compared.  A table this class fills holds every neighbour
        of every entry, so a file it wrote always passes.  Last, each entry
        must count ballot(n, k) paths at q = 1, a check that does not go
        through the row arithmetic.
        """
        if not isinstance(data, dict):
            raise ValueError("the root is not a JSON object")
        if data.get("schema") != self.SCHEMA:
            raise ValueError(f"unrecognized cache schema: {data.get('schema')!r}")
        raw = data.get("entries")
        if not isinstance(raw, dict):
            raise ValueError("there is no 'entries' object")
        parsed = sorted((_parse_key(key), _parse_row(key, row)) for key, row in raw.items())
        with self._lock:
            proven: dict[tuple[int, int], QLaurent] = {}
            for (n, k), (lo, cs) in parsed:
                if k == 0:
                    want = ONE
                else:
                    left = proven.get((n, k - 1)) or self._entries.get((n, k - 1))
                    up = proven.get((n - 1, k)) or self._entries.get((n - 1, k))
                    if left is None or (up is None and k < n):
                        raise ValueError(f"entry '{n},{k}' lacks the neighbours that prove it")
                    want = _next_row(left, up, k)
                # Compared as read: a file row enters arithmetic only once
                # it equals the canonical run of the row it must be.  It is
                # then kept, not want, so the table shares the file's
                # numbers instead of holding a second copy while loading.
                if lo != want.lo or cs != list(want.cs):
                    raise ValueError(f"entry '{n},{k}' breaks the ballot recurrence")
                proven[(n, k)] = _raw(lo, tuple(cs), True)
            for (n, k), row in proven.items():
                if sum(row.cs) != ballot(n, k):
                    raise ValueError(f"entry '{n},{k}' does not count ballot({n},{k}) paths")
            self._entries.update(proven)
        return len(proven)

    def save(self, path: str) -> None:
        """Write the table as JSON, atomically: a reader sees the old file or
        the new one, never a partial write."""
        import json

        text = json.dumps(self._document(tuple), separators=(",", ":"))
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def load(self, path: str) -> int:
        import json

        with open(path) as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"cache {path} is not valid JSON: {exc}") from None
        try:
            return self.load_json(data)
        except ValueError as exc:
            raise ValueError(f"cache {path}: {exc}") from None


_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")


def _parse_key(key: str) -> tuple[int, int]:
    m = _KEY.fullmatch(key)
    if m is None:
        raise ValueError(f"entry key {key!r} is not 'n,k'")
    n, k = int(m[1]), int(m[2])
    if k > n:
        raise ValueError(f"entry {key!r} has k > n")
    return n, k


def _parse_row(key: str, row: object) -> tuple[int, list[int]]:
    # [offset, [coefficients]], every number a JSON integer: bool and float
    # compare equal to int (True == 1.0 == 1), so the type is checked.
    if not (
        isinstance(row, list)
        and len(row) == 2
        and type(row[0]) is int
        and isinstance(row[1], list)
        and all(type(c) is int for c in row[1])
    ):
        raise ValueError(f"entry {key!r} is not [offset, [integer coefficients]]")
    return row[0], row[1]


TABLE = BallotTable()


def qballot(n: int, k: int) -> QLaurent:
    """f(n, k | q) by the two-term recurrence, memoized in the shared table."""
    return TABLE.get(n, k)


# -- exhaustive path oracles --------------------------------------------------


def _check_cap(total: int, cap: Optional[int]) -> None:
    limit = path_cap() if cap is None else cap
    if total > limit:
        raise ValueError(
            f"path enumeration refused: n+k={total} exceeds cap {limit} "
            "(set QBALLOT_PATH_CAP to raise it)"
        )


def _path_areas(n: int, k: int, east) -> dict[int, int]:
    """{A: count} over the lattice paths (0,0) -> (n,k) with y <= x, where A
    sums east(x, y) over the path's east steps (x,y) -> (x+1,y).

    Each step raises x + y by one, so every path meets the anti-diagonal
    x + y = h, h = (n+k)//2, at exactly one point.  The prefixes that stop
    there and the suffixes that start there, each walked one by one, are
    keyed by that point; a path is one prefix and one suffix through the
    same point, and its area is the sum of their areas.  Walking the
    halves visits about the square root of the path count."""
    h = (n + k) // 2
    heads: dict[tuple[int, int], dict[int, int]] = {}
    stack = [(0, 0, 0)]
    while stack:
        x, y, area = stack.pop()
        if x + y == h:
            seen = heads.setdefault((x, y), {})
            seen[area] = seen.get(area, 0) + 1
            continue
        if x < n:
            stack.append((x + 1, y, area + east(x, y)))
        if y < k and y < x:
            stack.append((x, y + 1, area))
    # Suffixes are walked backwards from (n, k); undoing an east step into
    # (x, y) needs (x-1, y) on or below y = x, i.e. y < x.
    tails: dict[tuple[int, int], dict[int, int]] = {}
    stack = [(n, k, 0)]
    while stack:
        x, y, area = stack.pop()
        if x + y == h:
            seen = tails.setdefault((x, y), {})
            seen[area] = seen.get(area, 0) + 1
            continue
        if y < x:
            stack.append((x - 1, y, area + east(x - 1, y)))
        if y > 0:
            stack.append((x, y - 1, area))
    counts: dict[int, int] = {}
    for point, head in heads.items():
        for b, nb in tails[point].items():
            for a, na in head.items():
                counts[a + b] = counts.get(a + b, 0) + na * nb
    return counts


def qballot_paths(n: int, k: int, cap: Optional[int] = None) -> QLaurent:
    """f(n, k | q) by enumeration of paths, weighted by area below.

    A path (0,0) -> (n,k) is a prefix to the anti-diagonal x + y = (n+k)//2
    joined to a suffix from the point where it meets it; that bijection
    lets the two halves be enumerated apart.  Areas are summed at absolute
    heights, and the forced final east step at height k adds k cells."""
    if n < 0 or k < 0:
        raise ValueError("qballot_paths needs n, k >= 0")
    _check_cap(n + k, cap)
    if k > n:
        return ZERO
    counts = _path_areas(n, k, lambda x, y: y)
    return QLaurent({area + k: c for area, c in counts.items()})


def tilde_f_paths(m: int, n: int, cap: Optional[int] = None) -> QLaurent:
    """Sum of q^A' over the same paths, A' counting cells above the path and
    below both y = x and y = n.  Independent of the reversal formula.

    Enumerated as prefix/suffix pairs through the anti-diagonal
    x + y = (m+n)//2, exactly as in qballot_paths; an east step at (x, y)
    adds min(x, n) - y cells."""
    if m < n or n < 0:
        raise ValueError("tilde_f_paths needs m >= n >= 0")
    _check_cap(m + n, cap)
    return QLaurent(_path_areas(m, n, lambda x, y: min(x, n) - y))


# -- reversal and Catalan families --------------------------------------------


def tilde_f(m: int, n: int) -> QLaurent:
    """q^((m-n)n + C(n+1,2)) f(m, n | 1/q); the generating polynomial of A'."""
    if m < n or n < 0:
        raise ValueError("tilde_f needs m >= n >= 0")
    shift = (m - n) * n + comb(n + 1, 2)
    return qballot(m, n).subs_q_inverse().shifted(shift)


def qcatalan(n: int) -> QLaurent:
    """C_n(q): the area q-Catalan polynomial, C_0 = C_1 = 1.

    Computed both as sum_k f(n-1, k | q) and as q^-n f(n, n | q); the two
    must agree, and disagreement is an internal error.
    """
    if n < 0:
        raise ValueError("qcatalan needs n >= 0")
    if n == 0:
        return ONE
    by_sum = ZERO
    for k in range(n):
        by_sum = by_sum + qballot(n - 1, k)
    by_diag = qballot(n, n).shifted(-n)
    if by_sum != by_diag:
        raise ExactnessError(f"q-Catalan routes disagree at n={n}")
    return by_sum


def tilde_qcatalan(n: int) -> QLaurent:
    """The reversal q^(C(n,2)) C_n(1/q); equals tilde_f(n, n)."""
    if n < 0:
        raise ValueError("tilde_qcatalan needs n >= 0")
    return qcatalan(n).subs_q_inverse().shifted(comb(n, 2))
