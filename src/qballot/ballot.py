"""Ballot numbers f(n, k), their q-analogues, and q-Catalan polynomials.

f(n, k | q) enumerates lattice paths from (0,0) to (n+1, k) that end with
an east step and never rise above the diagonal y = x, weighted by q^A where
A is the number of unit cells below the path and above the x-axis
(equivalently, the sum of the heights of the east steps).  The polynomials
satisfy

    f(n, k | q) = q f(n, k-1 | q) + q^k f(n-1, k | q),

with f(n, 0 | q) = 1 and f(n, k | q) = 0 for k > n.  `BallotTable` runs it
once, on rows packed into integers at q = 2^w, and unpacks a row into its
`QLaurent` only when it is read.  Everything else in this module is a
reading of the same table: column sums give the q-Catalan polynomials, the
reversed statistic A' (cells between the path and the staircase ceiling
min(y=x, y=k)) gives the tilde family.

The integer ballot numbers themselves, `ballot(n, k)`, are defined in the
ring module `qring` and imported here: they size the packed rows, and every
row unpacked or loaded from a `--cache` file must sum to one.

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
import sys
import threading
from math import comb

from .qring import ONE, ZERO, ExactnessError, QLaurent, _raw, ballot

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


# A row f(n, k | q), k <= n, has positive coefficients from q^k up, and they
# sum to ballot(n, k).  The table keeps g(n, k) = f(n, k) / q^k packed into
# one integer at q = 2^w, w = 64 t bits, with t words enough for ballot(n, k)
# of the largest row asked for: no coefficient of a row reaches 2^w, so no
# digit carries, and the recurrence is one shift and one add,
#
#     g(n, k) = g(n, k-1) + (g(n-1, k) << k w),   g(n, 0) = 1,  g(n-1, n) = 0.
#
# A row is unpacked into its QLaurent the first time it is read, and the
# QLaurent replaces the integer, so the table holds one copy of each row.


def _words(n: int, k: int) -> int:
    """64-bit words a digit needs in the rows f(m, j), m <= n, j <= min(m, k):
    enough for ballot(n, k), which bounds every coefficient of every one."""
    return -(-ballot(n, k).bit_length() // 64)


def _packed_step(left: int, up: int, shift: int) -> int:
    """g(n, k) from g(n, k-1) and g(n-1, k), with shift = k w."""
    return left + (up << shift)


def _pack_row(cs: tuple[int, ...], t: int) -> int:
    """sum_i cs[i] 2^(64 t i), for 0 <= cs[i] < 2^(64 t)."""
    return int.from_bytes(b"".join([c.to_bytes(8 * t, "little") for c in cs]), "little")


def _digits(v: int, t: int) -> list[int]:
    """The base-2^(64 t) digits of v > 0, lowest first, read off a view of
    its 64-bit words."""
    n = -(-v.bit_length() // 64)
    n += -n % t
    words = memoryview(v.to_bytes(8 * n, sys.byteorder)).cast("Q").tolist()
    if sys.byteorder == "big":
        words.reverse()
    digits = words if t == 1 else words[::t]
    # Most digits fit their low word, so a high word is added only where it
    # is nonzero, and a row whose high words are all zero is its low words.
    for i in range(1, t):
        high = words[i::t]
        if any(high):
            digits = [d | h << 64 * i if h else d for d, h in zip(digits, high)]
    return digits


class BallotTable:
    """Memoized table of f(n, k | q), safe for concurrent readers.

    Writes happen under a single lock.  A row is read without the lock only
    once it is a QLaurent, which is immutable; a packed row is unpacked, and
    the table widened or filled, under the lock.
    """

    def __init__(self) -> None:
        # (n, k) -> g(n, k) packed at _words words a digit, or the QLaurent
        # f(n, k) once the row has been read
        self._entries: dict[tuple[int, int], int | QLaurent] = {}
        self._words = 1
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """The number of rows held, read or not."""
        return len(self._entries)

    def get(self, n: int, k: int) -> QLaurent:
        if n < 0 or k < 0:
            raise ValueError("qballot needs n, k >= 0")
        if k > n:
            return ZERO
        row = self._entries.get((n, k))
        if type(row) is not QLaurent:
            with self._lock:
                if (n, k) not in self._entries:
                    self._fill(n, k)
                row = self._read(n, k)
        return row

    def _read(self, n: int, k: int) -> QLaurent:
        """Row (n, k), unpacked and kept the first time it is read.  Its
        coefficients must count ballot(n, k) paths: a digit that carried
        would break the sum, so a wrong width cannot give a wrong row."""
        row = self._entries[(n, k)]
        if type(row) is int:
            cs = _digits(row, self._words)
            if sum(cs) != ballot(n, k):
                raise ExactnessError(f"f({n},{k}|q) unpacked at {self._words} words "
                                     f"does not count ballot({n},{k}) paths")
            row = self._entries[(n, k)] = _raw(k, tuple(cs))
        return row

    def _fill(self, n: int, k: int) -> None:
        """Pack every row f(m, j), m <= n, j <= min(m, k), the table lacks."""
        t = _words(n, k)
        if t > self._words:
            self._widen(t)
        entries = self._entries
        for m in range(n + 1):
            for j in range(min(m, k) + 1):
                if (m, j) not in entries:
                    entries[(m, j)] = self._packed(m, j, entries)

    def _widen(self, t: int) -> None:
        """Pack every unread row again at t words a digit."""
        entries = self._entries
        for key, g in entries.items():
            if type(g) is int:
                entries[key] = _pack_row(_digits(g, self._words), t)
        self._words = t

    def _packed(self, n: int, k: int, rows: dict) -> int:
        """g(n, k) at the table's width, from its neighbours in rows, else in
        the table; a neighbour that has been read is packed again."""
        if k == 0:
            return 1
        left, up = self._neighbour((n, k - 1), rows), self._neighbour((n - 1, k), rows)
        return _packed_step(left, up, 64 * self._words * k)

    def _neighbour(self, key: tuple[int, int], rows: dict) -> int:
        # g(n-1, n) = 0: the row k > n is in neither
        g = rows.get(key) or self._entries.get(key, 0)
        return g if type(g) is int else _pack_row(g.cs, self._words)

    def known(self) -> dict[tuple[int, int], QLaurent]:
        """Every row held, each unpacked at most once."""
        with self._lock:
            return {key: self._read(*key) for key in self._entries}

    # -- persistence (CLI --cache) --------------------------------------------

    SCHEMA = "qballot-table-v2"

    def load_json(self, data: object) -> int:
        """Add the entries of a dumped table; raises ValueError, and adds
        nothing, unless every entry is well-formed and provably right.

        Entries are proven in (n, k) order, on the table's packed recurrence.
        Each must equal the row that f(n,k) = q f(n,k-1) + q^k f(n-1,k)
        (f(n,0) = 1) gives from rows in the table or proven before it, so an
        entry whose neighbours are missing is rejected: the file decides no
        amount of work, only which rows are compared.  The packed width
        grows only to fit an entry whose neighbours are there.  A table this
        class fills holds every neighbour of every entry, so a file it wrote
        always passes.  Last, each entry must count ballot(n, k) paths at
        q = 1, a check that does not go through the row arithmetic.
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
            entries = self._entries
            proven: dict[tuple[int, int], QLaurent] = {}
            # the proven rows of n - 1 and n, packed: all a row's neighbours
            packed: dict[tuple[int, int], int] = {}
            last = 0
            for (n, k), (lo, cs) in parsed:
                if n != last:
                    last = n
                    packed = {key: g for key, g in packed.items() if key[0] == n - 1}
                if k == 0:
                    want = 1
                else:
                    for key in [(n, k - 1)] if k == n else [(n, k - 1), (n - 1, k)]:
                        if key not in proven and key not in entries:
                            raise ValueError(f"entry '{n},{k}' lacks the neighbours that prove it")
                    t = _words(n, k)
                    if t > self._words:
                        self._widen(t)
                        packed = {key: _pack_row(proven[key].cs, t) for key in packed}
                    want = self._packed(n, k, packed)
                # Compared as read: a file row enters arithmetic only once
                # it equals the digits of the row it must be.  It is then
                # kept, not those digits, so the table shares the file's
                # numbers instead of holding a second copy while loading.
                if lo != k or cs != _digits(want, self._words):
                    raise ValueError(f"entry '{n},{k}' breaks the ballot recurrence")
                proven[(n, k)] = _raw(lo, tuple(cs))
                packed[(n, k)] = want
            for (n, k), row in proven.items():
                if sum(row.cs) != ballot(n, k):
                    raise ValueError(f"entry '{n},{k}' does not count ballot({n},{k}) paths")
            entries.update(proven)
        return len(proven)

    def save(self, path: str) -> None:
        """Write the table as the JSON document
        {"schema", "entries": {"n,k": [lo, [c_lo, ..., c_hi]]}}, entries in
        (n, k) order, atomically: a reader sees the old file or the new one,
        never a partial write."""
        import json

        # json writes a tuple as an array, so each row's run is not copied
        entries = {f"{n},{k}": [p.lo, p.cs] for (n, k), p in sorted(self.known().items())}
        text = json.dumps({"schema": self.SCHEMA, "entries": entries}, separators=(",", ":"))
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


def _check_cap(total: int) -> None:
    limit = path_cap()
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


def qballot_paths(n: int, k: int) -> QLaurent:
    """f(n, k | q) by enumeration of paths, weighted by area below.

    A path (0,0) -> (n,k) is a prefix to the anti-diagonal x + y = (n+k)//2
    joined to a suffix from the point where it meets it; that bijection
    lets the two halves be enumerated apart.  Areas are summed at absolute
    heights, and the forced final east step at height k adds k cells."""
    if n < 0 or k < 0:
        raise ValueError("qballot_paths needs n, k >= 0")
    _check_cap(n + k)
    if k > n:
        return ZERO
    counts = _path_areas(n, k, lambda x, y: y)
    return QLaurent({area + k: c for area, c in counts.items()})


def tilde_f_paths(m: int, n: int) -> QLaurent:
    """Sum of q^A' over the same paths, A' counting cells above the path and
    below both y = x and y = n.  Independent of the reversal formula.

    Enumerated as prefix/suffix pairs through the anti-diagonal
    x + y = (m+n)//2, exactly as in qballot_paths; an east step at (x, y)
    adds min(x, n) - y cells."""
    if m < n or n < 0:
        raise ValueError("tilde_f_paths needs m >= n >= 0")
    _check_cap(m + n)
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
    # f(n, n) first: its fill packs every row the sum reads, none of them
    # read yet
    by_diag = qballot(n, n).shifted(-n)
    by_sum = ZERO
    for k in range(n):
        by_sum = by_sum + qballot(n - 1, k)
    if by_sum != by_diag:
        raise ExactnessError(f"q-Catalan routes disagree at n={n}")
    return by_sum


def tilde_qcatalan(n: int) -> QLaurent:
    """The reversal q^(C(n,2)) C_n(1/q), read as the table row tilde_f(n, n):
    C_n(q) = q^-n f(n, n | q), so the two shifts add up to C(n+1, 2)."""
    if n < 0:
        raise ValueError("tilde_qcatalan needs n >= 0")
    return tilde_f(n, n)
