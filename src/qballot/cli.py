"""Command-line front end.

Subcommands reproduce the ballot-number tables and polynomial displays,
run named verification suites, sweep the positivity conjecture, and export
Newton polytopes.  Output is deterministic: the same flags always produce
byte-identical text/JSON/CSV (SVG carries one fixed generator comment).
Each cmd_* function returns its output text and exit code, and main()
writes the text.  Only ``ballot`` takes --cache: cmd_ballot loads the file
before its lookup (a missing file counts as holding none) and saves it
before returning, only when the lookup added table entries.

Every op is a cold process, so start-up is kept small: importing this
module loads no ``dataclasses``, and ``json``/``csv`` are imported only by
the code that writes ``--format json|csv`` or reads and writes ``--cache``.
Of the package it loads only the ring module ``qring`` and ``report``, and
each cmd_* function imports what it runs: ``table``, ``ballot`` and
``catalan`` the q-ballot table ``ballot``;
``conjecture`` the leaf ``sweep``, with only the leaf ``qcyclo`` (the
[d]_q! sieve and the Newton-Horner core) under it; ``cx`` ``csequence``;
and ``verify`` and ``polytope`` ``analysis``, which brings ``sweep``,
``qcyclo`` and the fraction field ``qlaurent``, while each suite imports
what it reads of ``ballot``, ``csequence`` and ``qcore``.
Coefficients are ints, and only the functions that return a Fraction import
``fractions`` (which loads ``decimal`` and ``numbers``), so only
``polytope`` and ``verify polytope`` load it, for the hull slopes.  A
process runs ``run()``, which calls ``main()`` and then ``gc.freeze()``
before it exits: interpreter finalization would otherwise run full
collections over every object the run left behind, the site-loaded modules
and qballot's tables and columns, only for the process to end.  ``main()``
itself has no such side effect, so in-process callers keep a normal
collector.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, 3 internal error (an exact division that theory
guarantees left a remainder, i.e. a bug in qballot, not in the input), 4
out of memory (the run needs more memory than the process may take).
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .qring import ExactnessError, ballot
from .report import METHODS, SUITES


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(data: object) -> str:
    import json

    return json.dumps(data, indent=2) + "\n"


# One exponent point [q, x] as json.dumps(indent=2) lays it out in the
# "points" list of the polytope document.
_POINT_JSON = "    [\n      %d,\n      %d\n    ]"


def _polytope_json(n: int, p) -> str:
    """`_json_text({"n": n, **p.to_json()})` for a `NewtonPolytope` p, byte
    for byte, with its points (there is at least one) written by one template
    join.  With `indent` set, json.dumps runs its pure-Python encoder, which
    took a third of a cold `polytope --n 50` and doubled the op's peak
    memory."""
    text = _json_text({"n": n, **p._replace(points=()).to_json()})
    head, tail = text.split('"points": []', 1)
    block = ",\n".join(map(_POINT_JSON.__mod__, p.points))
    return "".join((head, '"points": [\n', block, "\n  ]", tail))


# -- table --------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    maxn = args.max_n
    if maxn < 0:
        raise ValueError("--max-n must be >= 0")
    from .ballot import qballot

    if args.which == 1:
        entries = [[ballot(n, k) for k in range(n + 1)] for n in range(maxn + 1)]
    else:
        qballot(maxn, maxn)  # one fill packs the triangle; a row unpacks when read
        entries = [[str(qballot(n, k)) for k in range(n + 1)] for n in range(maxn + 1)]
    if args.format == "json":
        rows = [{"n": n, "entries": entries[n]} for n in range(maxn + 1)]
        text = _json_text({"table": args.which, "max_n": maxn, "rows": rows})
    elif args.format == "csv":
        flat = [
            (n, k, entries[n][k])
            for n in range(maxn + 1)
            for k in range(n + 1)
        ]
        text = _csv_text(("n", "k", "polynomial"), flat)
    else:
        lines = [
            f"n={n}: " + ", ".join(str(e) for e in entries[n])
            for n in range(maxn + 1)
        ]
        text = "\n".join(lines) + "\n"
    return text, 0


# -- single values ------------------------------------------------------------


def cmd_ballot(args: argparse.Namespace) -> tuple[str, int]:
    from .ballot import TABLE, qballot

    stored = 0  # table entries after loading the file; a missing one holds none
    if args.cache is not None and args.cache.exists():
        TABLE.load(str(args.cache))
        stored = len(TABLE)
    if args.n < 0 or args.k < 0:
        raise ValueError("--n and --k must be >= 0")
    poly = qballot(args.n, args.k)
    plain = ballot(args.n, args.k)
    if args.format == "json":
        text = _json_text(
            {
                "n": args.n,
                "k": args.k,
                "value": plain,
                "polynomial": str(poly),
                "terms": poly.to_json(),
            }
        )
    elif args.format == "csv":
        text = _csv_text(("n", "k", "polynomial"), [(args.n, args.k, str(poly))])
    else:
        text = f"f({args.n},{args.k}|q) = {poly}\nf({args.n},{args.k}) = {plain}\n"
    # Saved only when the table grew, and before main() writes any output,
    # so a failed save leaves no partial result.
    if args.cache is not None and len(TABLE) > stored:
        TABLE.save(str(args.cache))
    return text, 0


def cmd_catalan(args: argparse.Namespace) -> tuple[str, int]:
    maxn = args.max_n
    if maxn < 0:
        raise ValueError("--max-n must be >= 0")
    from .ballot import qballot, qcatalan, tilde_qcatalan

    qballot(maxn, maxn)  # one fill packs every row the sums read
    rows = [
        (n, str(qcatalan(n)), str(tilde_qcatalan(n))) for n in range(maxn + 1)
    ]
    if args.format == "json":
        text = _json_text(
            {
                "max_n": maxn,
                "rows": [
                    {"n": n, "catalan": c, "reversed": r} for n, c, r in rows
                ],
            }
        )
    elif args.format == "csv":
        text = _csv_text(("n", "catalan", "reversed"), rows)
    else:
        lines = []
        for n, c, r in rows:
            lines.append(f"C_{n}(q) = {c}")
            lines.append(f"reversed C_{n}(q) = {r}")
        text = "\n".join(lines) + "\n"
    return text, 0


# -- the polynomial family ----------------------------------------------------


def cmd_cx(args: argparse.Namespace) -> tuple[str, int]:
    if args.n < 1:
        raise ValueError("--n must be >= 1 (the family starts at C_1)")
    from .csequence import c_family, format_qbinom, theorem1_qbinom_coeffs
    from .qcore import from_qbinom_coords

    # Each construction holds C_n as q-binomial coordinates.  Theorem 1 builds
    # C_n alone; the other two recurrences need C_1..C_n-1.
    if args.method == "theorem1":
        coeffs = theorem1_qbinom_coeffs(args.n - 1)
    else:
        coeffs = c_family(args.method, args.n).coords[-1]
    if args.basis == "monomial":
        poly = from_qbinom_coords(coeffs)
        if args.format == "text":
            # str(poly) builds the reduced coefficients itself.
            return f"C_{args.n}(x|q) = {poly}\n", 0
        coeffs = poly.coeffs
    if args.format == "text":
        return f"C_{args.n}(x|q) = {format_qbinom(coeffs)}\n", 0
    strs = [str(c) for c in coeffs]
    if args.format == "json":
        text = _json_text(
            {"n": args.n, "method": args.method, "basis": args.basis, "coeffs": strs}
        )
    else:
        text = _csv_text(("k", "coefficient"), list(enumerate(strs)))
    return text, 0


# -- verification -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.max_n < 0:
        raise ValueError("--max-n must be >= 0")
    from .analysis import run_suite

    rep = run_suite(args.suite, args.max_n)
    if args.format == "json":
        text = _json_text(rep.to_json())
    elif args.format == "csv":
        rows = [
            (r.id, r.n, "" if r.k is None else r.k, r.passed, r.detail or "")
            for r in rep.results
        ]
        text = _csv_text(("id", "n", "k", "pass", "detail"), rows)
    else:
        text = "\n".join(rep.lines()) + "\n"
    return text, 0 if rep.passed else 1


def cmd_conjecture(args: argparse.Namespace) -> tuple[str, int]:
    maxn = args.max_n
    if maxn < 2:
        raise ValueError("--max-n must be >= 2")
    from .sweep import NumeratorReport, _conjecture_rows

    rows = _conjecture_rows(list(range(2, maxn + 1)))
    ok = all(r.ok for r in rows)
    if args.format == "json":
        results = [r._asdict() for r in rows]
        text = _json_text({"max_n": maxn, "all_ok": ok, "results": results})
    elif args.format == "csv":
        columns = NumeratorReport._fields[:4]  # every field but coefficient_stats
        text = _csv_text(columns, [[getattr(r, c) for c in columns] for r in rows])
    else:
        lines = [f"n={r.n}: " + ("ok" if r.ok else f"FAIL {r.failure}") for r in rows]
        lines.append(
            f"conjecture 2..{maxn}: " + ("all ok" if ok else "FAILURES above")
        )
        text = "\n".join(lines) + "\n"
    return text, 0 if ok else 1


def cmd_polytope(args: argparse.Namespace) -> tuple[str, int]:
    if args.n < 2:
        raise ValueError("--n must be >= 2 (P_1 is a single point)")
    from .analysis import newton_polytope, svg_polytope
    from .sweep import theorem1_columns

    p = newton_polytope(theorem1_columns(args.n - 1))
    if args.format == "svg":
        text = svg_polytope(p, title=f"P_{args.n} exponents")
    else:
        text = _polytope_json(args.n, p)
    return text, 0


# -- parser -------------------------------------------------------------------


def _add_io(sp: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--out", type=Path, default=None, help="write output here")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qballot",
        description="Exact q-ballot / q-Catalan computations and verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="triangle of (q-)ballot numbers")
    t.add_argument("which", type=int, choices=(1, 2),
                   help="1: integer ballot numbers, 2: q-weighted")
    t.add_argument("--max-n", type=int, default=6)
    _add_io(t, ("text", "json", "csv"))
    t.set_defaults(fn=cmd_table)

    b = sub.add_parser("ballot", help="one ballot number f(n,k|q)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    _add_io(b, ("text", "json", "csv"))
    b.add_argument(
        "--cache", type=Path, default=None,
        help="load/save the ballot memo table as JSON",
    )
    b.set_defaults(fn=cmd_ballot)

    c = sub.add_parser("catalan", help="q-Catalan numbers and their reversals")
    c.add_argument("--max-n", type=int, default=8)
    _add_io(c, ("text", "json", "csv"))
    c.set_defaults(fn=cmd_catalan)

    x = sub.add_parser("cx", help="the interpolating polynomial C_n(x|q)")
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--method", choices=METHODS, default="theorem1")
    x.add_argument("--basis", choices=("monomial", "qbinom"), default="qbinom")
    _add_io(x, ("text", "json", "csv"))
    x.set_defaults(fn=cmd_cx)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--max-n", type=int, default=8)
    _add_io(v, ("text", "json", "csv"))
    v.set_defaults(fn=cmd_verify)

    j = sub.add_parser("conjecture", help="positivity/irreducibility sweep")
    j.add_argument("--max-n", type=int, default=27)
    _add_io(j, ("text", "json", "csv"))
    j.set_defaults(fn=cmd_conjecture)

    g = sub.add_parser("polytope", help="Newton polytope of the numerator")
    g.add_argument("--n", type=int, required=True)
    _add_io(g, ("json", "svg"))
    g.set_defaults(fn=cmd_polytope)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.fn(args)
        if args.out is None:
            if sys.stdout is None:  # the process was started with fd 1 closed
                raise OSError("standard output is closed")
            sys.stdout.write(text)
        else:
            args.out.write_text(text)
        return code
    except ExactnessError as exc:
        print(f"qballot: internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"qballot: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("qballot: out of memory; try a smaller n", file=sys.stderr)
        return 4


def run() -> NoReturn:
    """The process entry of ``python -m qballot.cli`` and ``qballot``.

    The freeze moves every tracked object to the permanent generation, which
    no collection scans; atexit hooks and the flush of stdout still run.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
