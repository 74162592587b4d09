"""The benchmark's workloads: seeded op lists and the checks on each op's output.

An op is one cold `python -m qballot.cli ARGV` process.  The seed fixes the
order of the ops and the keys drawn for them; the program sees only argv.
"""

from __future__ import annotations

import hashlib
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from math import comb
from typing import Optional

WHY = {
    "sweep": "the paper's headline sweep (conjecture to n=27, P_27 polytope as SVG): "
             "qlaurent multiply and qcore [d]_q! reduction do nearly all the work",
    "verify": "the identity suites at their acceptance sizes: QRatFunc gcd "
              "normalisation and the path oracles dominate, multiply stays small",
    "cache": "ballot --cache builds, then seeded lookups inside and beyond the stored "
             "range: JSON load/save of the memo table, no-cache recomputes beside",
}

SWEEP = (
    ("conjecture", "--max-n", "27"),
    ("polytope", "--n", "27", "--format", "svg"),
)

# Acceptance sizes of the verification suites.
SUITES = (
    ("prop1", 8), ("corollary", 10), ("prop2", 10), ("thm1", 12), ("thm2", 12),
    ("key_identities", 8), ("carlitz", 10), ("q1_identities", 15),
    ("stirling", 7), ("andrews", 5),
)

# The cache pass: one build from no file, then five lookups against it.
# Inside lookups stay within the stored table; the first extension is drawn
# a few rows beyond it, and the last one always goes to CEILING, so the
# largest file (and the slowest op) is the same for every seed.
BUILD = (36, 18)
CEILING = (46, 23)
LOOKUP_N_MIN, LOOKUP_K_MIN = 30, 12
LOOKUP_PLAN = ("inside", "extend", "inside", "ceiling", "inside")


@dataclass(frozen=True)
class Op:
    """One CLI process.  kind is sweep, suite, build, lookup or recompute;
    build and lookup ops also get `--cache FILE` for the pass's cache file."""

    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def cached(self) -> bool:
        return self.kind in ("build", "lookup")


def _ballot(n: int, k: int) -> tuple[str, ...]:
    return ("ballot", "--n", str(n), "--k", str(k))


def cache_keys(rng: random.Random) -> list[tuple[str, int, int]]:
    """(kind, n, k) of the cache pass before recomputes are interleaved."""
    stored_n, stored_k = BUILD
    keys = [("build", stored_n, stored_k)]
    for step in LOOKUP_PLAN:
        if step == "inside":
            n = rng.randint(LOOKUP_N_MIN, stored_n)
            k = rng.randint(LOOKUP_K_MIN, min(n, stored_k))
        elif step == "extend":
            n, k = stored_n + rng.randint(3, 5), stored_k + rng.randint(1, 2)
        else:
            n, k = CEILING
        stored_n, stored_k = max(stored_n, n), max(stored_k, k)
        keys.append(("lookup", n, k))
    return keys


def ops_for(workload: str, seed: int) -> list[Op]:
    """The op list of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        ops = [Op("sweep", argv) for argv in SWEEP]
        rng.shuffle(ops)
        return ops
    if workload == "verify":
        ops = [Op("suite", ("verify", name, "--max-n", str(n))) for name, n in SUITES]
        rng.shuffle(ops)
        return ops
    if workload == "cache":
        ops = []
        for kind, n, k in cache_keys(rng):
            ops.append(Op(kind, _ballot(n, k)))
            if kind == "lookup":
                ops.append(Op("recompute", _ballot(n, k)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def reference_ops() -> list[Op]:
    """Every op any seed can produce (the build key lies inside the lookup
    range), for recording reference outputs."""
    ops = [Op("sweep", argv) for argv in SWEEP]
    ops += [Op("suite", ("verify", name, "--max-n", str(n))) for name, n in SUITES]
    for n in range(LOOKUP_N_MIN, CEILING[0] + 1):
        for k in range(LOOKUP_K_MIN, min(n, CEILING[1]) + 1):
            ops.append(Op("recompute", _ballot(n, k)))
    return ops


# -- output checks ------------------------------------------------------------


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def check(op: Op, returncode: int, out: bytes, refs: dict) -> Optional[str]:
    """None if the op's output is right, else why not.

    Every op must exit 0 and print exactly the bytes recorded from the seed
    commit.  One more check per kind is computed without qballot.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    ref = refs["sha256"].get(op.key)
    if ref is None:
        return "no reference output recorded for this op"
    if digest(out) != ref:
        return "stdout differs from the recorded reference"
    text = out.decode()
    if op.kind in ("build", "lookup", "recompute"):
        return _check_ballot(op, text)
    if op.argv[0] == "conjecture":
        return _check_conjecture(op, text)
    if op.argv[0] == "polytope":
        return _check_svg(text, refs["points"][op.key])
    return _check_suite(op, text)


def _check_ballot(op: Op, text: str) -> Optional[str]:
    n, k = int(op.argv[2]), int(op.argv[4])
    want = f"f({n},{k}) = {(n - k + 1) * comb(n + k, k) // (n + 1)}"
    last = text.rstrip("\n").split("\n")[-1]
    return None if last == want else f"last line {last[:80]!r}, want {want!r}"


def _check_conjecture(op: Op, text: str) -> Optional[str]:
    maxn = int(op.argv[2])
    want = [f"n={n}: ok" for n in range(2, maxn + 1)]
    want.append(f"conjecture 2..{maxn}: all ok")
    return None if text.split("\n")[:-1] == want else "conjecture lines are not all ok"


def _check_suite(op: Op, text: str) -> Optional[str]:
    name = op.argv[1]
    status = "reported" if name == "andrews" else "pass"
    last = text.rstrip("\n").split("\n")[-1]
    if re.fullmatch(rf"suite {name}: \d+/\d+ ok \({status}\)", last):
        return None
    return f"last line {last[:80]!r}, want status ({status})"


def _check_svg(text: str, points: int) -> Optional[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"SVG is not well-formed XML: {exc}"
    circles = [(c.get("cx"), c.get("cy")) for c in root.iter("{http://www.w3.org/2000/svg}circle")]
    if len(circles) != points or len(set(circles)) != points:
        return f"{len(circles)} circles ({len(set(circles))} distinct), want {points} exponent points"
    return None
