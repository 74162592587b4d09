"""Command-line front end.

Subcommands reproduce the ballot-number tables and polynomial displays,
run named verification suites, sweep the positivity conjecture, and export
Newton polytopes.  Output is deterministic: the same flags always produce
byte-identical text/JSON/CSV (SVG carries one fixed generator comment).
Each cmd_* function returns its output text and exit code; main() loads the
--cache file before it, saves the file after it when the file is new or the
table grew, and then writes the text.

Every op is a cold process, so start-up is kept small: importing this
module loads no ``dataclasses``, and ``json``/``csv`` are imported only by
the code that writes ``--format json|csv`` or reads and writes ``--cache``.
Of the package it loads only ``ballot``, ``qlaurent`` and ``report``, which
is all that ``table``, ``ballot`` and ``catalan`` run; ``cx``, ``verify``,
``conjecture`` and ``polytope`` import ``csequence``, ``qcore`` and
``analysis`` inside their cmd_* function.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, 3 internal error (an exact division that theory
guarantees left a remainder, i.e. a bug in qballot, not in the input).
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path
from typing import Optional, Sequence

from .ballot import TABLE, ballot, qballot, qcatalan, tilde_qcatalan
from .qlaurent import ExactnessError
from .report import METHODS, SUITES, SuiteReport


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


# -- table --------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    maxn = args.max_n
    if maxn < 0:
        raise ValueError("--max-n must be >= 0")
    if args.which == 1:
        entries = [[int(ballot(n, k)) for k in range(n + 1)] for n in range(maxn + 1)]
    else:
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
    if args.n < 0 or args.k < 0:
        raise ValueError("--n and --k must be >= 0")
    poly = qballot(args.n, args.k)
    plain = int(ballot(args.n, args.k))
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
    return text, 0


def cmd_catalan(args: argparse.Namespace) -> tuple[str, int]:
    maxn = args.max_n
    if maxn < 0:
        raise ValueError("--max-n must be >= 0")
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
    from .csequence import c_family, format_qbinom
    from .qcore import to_qbinom_basis

    poly = c_family(args.method, args.n).poly(args.n)
    e = to_qbinom_basis(poly) if args.basis == "qbinom" else poly.coeffs
    coeffs = [str(c) for c in e]
    if args.format == "json":
        text = _json_text(
            {
                "n": args.n,
                "method": args.method,
                "basis": args.basis,
                "coeffs": coeffs,
            }
        )
    elif args.format == "csv":
        text = _csv_text(("k", "coefficient"), list(enumerate(coeffs)))
    elif args.basis == "qbinom":
        text = f"C_{args.n}(x|q) = {format_qbinom(e)}\n"
    else:
        text = f"C_{args.n}(x|q) = {poly}\n"
    return text, 0


# -- verification -------------------------------------------------------------


def _report_text(rep: SuiteReport) -> str:
    return "\n".join(rep.lines()) + "\n"


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
        text = _report_text(rep)
    return text, 0 if rep.passed else 1


def cmd_conjecture(args: argparse.Namespace) -> tuple[str, int]:
    maxn = args.max_n
    if maxn < 2:
        raise ValueError("--max-n must be >= 2")
    from .analysis import _conjecture_rows

    rows = _conjecture_rows(list(range(2, maxn + 1)))
    ok = all(poly and irr and pos for _, poly, irr, pos, _ in rows)
    if args.format == "json":
        results = [
            {
                "n": n,
                "is_polynomial": poly,
                "is_irreducible_fraction": irr,
                "all_coeffs_positive": pos,
                "coefficient_stats": [list(s) for s in stats],
            }
            for n, poly, irr, pos, stats in rows
        ]
        text = _json_text({"max_n": maxn, "all_ok": ok, "results": results})
    elif args.format == "csv":
        text = _csv_text(
            ("n", "is_polynomial", "is_irreducible_fraction", "all_coeffs_positive"),
            [row[:4] for row in rows],
        )
    else:
        lines = []
        for n, poly, irr, pos, _ in rows:
            if poly and irr and pos:
                lines.append(f"n={n}: ok")
            else:
                lines.append(
                    f"n={n}: FAIL polynomial={poly} "
                    f"irreducible={irr} "
                    f"positive={pos}"
                )
        lines.append(
            f"conjecture 2..{maxn}: " + ("all ok" if ok else "FAILURES above")
        )
        text = "\n".join(lines) + "\n"
    return text, 0 if ok else 1


def cmd_polytope(args: argparse.Namespace) -> tuple[str, int]:
    if args.n < 2:
        raise ValueError("--n must be >= 2 (P_1 is a single point)")
    from .analysis import newton_polytope, svg_polytope, theorem1_numerator

    p = newton_polytope(theorem1_numerator(args.n))
    if args.format == "svg":
        text = svg_polytope(p, title=f"P_{args.n} exponents")
    else:
        text = _json_text({"n": args.n, **p.to_json()})
    return text, 0


# -- parser -------------------------------------------------------------------


def _add_io(sp: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--out", type=Path, default=None, help="write output here")
    sp.add_argument(
        "--cache", type=Path, default=None,
        help="load/save the ballot memo table as JSON",
    )


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
        stored = None  # table entries after loading an existing file
        if args.cache is not None and args.cache.exists():
            TABLE.load(str(args.cache))
            stored = len(TABLE.known())
        text, code = args.fn(args)
        # Saved even when a verification failed (code 1), and before any
        # output is written, so a failed save leaves no partial result.
        if args.cache is not None and len(TABLE.known()) != stored:
            TABLE.save(str(args.cache))
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.write_text(text)
        return code
    except ExactnessError as exc:
        print(f"qballot: internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qballot: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qballot: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
