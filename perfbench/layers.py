"""Span tracing of qballot's layers, installed from outside the package.

`install(tracer)` wraps the public functions of each qballot module (the
targets in LAYERS) so that every call records a span: the layer name, its
start and end, and the span that was open when it began.  The package's
modules bind each other's functions with `from .x import f`, so a wrapper is
written into every qballot module namespace (and class) that holds the
original object.  Functions decorated with `functools.cache` are wrapped as
bound, so cache hits count as calls.

Spans stay in memory as flat arrays and are written once, by `dump`, when
the traced process ends; `summarize` turns span files read by `load` into
per-layer calls and self time.  A span's self time is its duration minus the
time covered by its child spans, where a child's coverage also includes the
tracer's bookkeeping after it returned (counting the terms of a product,
say), so bookkeeping is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from typing import Callable, Iterable, Optional

# (defining module, attribute path, layer name).  Two targets may share a
# layer name; both path oracles count as `ballot.paths`.
LAYERS = (
    ("qballot.qlaurent", "QLaurent.__mul__", "qlaurent.mul"),
    ("qballot.qlaurent", "poly_gcd", "qlaurent.gcd"),
    ("qballot.qlaurent", "ql_divexact", "qlaurent.divexact"),
    ("qballot.qlaurent", "QRatFunc.__init__", "qlaurent.ratfunc"),
    ("qballot.qcore", "reduce_by_qfactorial", "qcore.reduce_qfactorial"),
    ("qballot.qcore", "from_qbinom_basis", "qcore.from_qbinom"),
    ("qballot.qcore", "qfactorial_coprime", "qcore.coprime"),
    ("qballot.qcore", "to_qbinom_basis", "qcore.to_qbinom"),
    ("qballot.qcore", "subst_affine", "qcore.subst_affine"),
    ("qballot.ballot", "BallotTable.get", "ballot.table_get"),
    ("qballot.ballot", "qballot_paths", "ballot.paths"),
    ("qballot.ballot", "tilde_f_paths", "ballot.paths"),
    ("qballot.ballot", "BallotTable.load", "ballot.cache_load"),
    ("qballot.ballot", "BallotTable.save", "ballot.cache_save"),
    ("qballot.csequence", "c_theorem1", "csequence.theorem1"),
    ("qballot.csequence", "c_difference", "csequence.difference"),
    ("qballot.csequence", "c_recurrence", "csequence.recurrence"),
    ("qballot.csequence", "c_eval_qint", "csequence.eval_qint"),
    ("qballot.analysis", "numerator", "analysis.numerator"),
    ("qballot.analysis", "newton_polytope", "analysis.hull"),
    ("qballot.analysis", "svg_polytope", "analysis.svg"),
    ("qballot.analysis", "run_suite", "analysis.suite"),
    ("qballot.cli", "main", "cli.main"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))

# Counters merged across processes by maximum; all others are summed.
PEAKS = frozenset({"qlaurent.mul.max_coeff_bits", "ballot.table_entries"})


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def table_size(table) -> int:
    # BallotTable keeps its memo in `_entries`; a table without one counts 0.
    return len(vars(table).get("_entries", ()))


# -- per-layer counters, taken at the call boundary ---------------------------


def _after_mul(tracer: "Tracer", args: tuple, result, before) -> None:
    if result is NotImplemented:
        return
    a, b = args
    nb = len(b) if hasattr(b, "items") else 1
    tracer.count("qlaurent.mul.term_pairs", len(a) * nb)
    bits = max((_coeff_bits(c) for _, c in result.items()), default=0)
    tracer.peak("qlaurent.mul.max_coeff_bits", bits)


def _after_gcd(tracer: "Tracer", args: tuple, result, before) -> None:
    if result != 1:
        tracer.count("qlaurent.gcd.useful", 1)


def _after_save(tracer: "Tracer", args: tuple, result, before) -> None:
    tracer.count("ballot.cache_bytes", os.path.getsize(args[1]))


def _after_table_get(tracer: "Tracer", args: tuple, result, before) -> None:
    if table_size(args[0]) != before:
        tracer.count("ballot.table_get.misses", 1)


# layer -> (before, after): `before(args)` runs ahead of the span and its
# value is passed to `after(tracer, args, result, before)`.
HOOKS = {
    "qlaurent.mul": (None, _after_mul),
    "qlaurent.gcd": (None, _after_gcd),
    "ballot.cache_save": (None, _after_save),
    "ballot.table_get": (lambda args: table_size(args[0]), _after_table_get),
}


class Tracer:
    """In-memory span store for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tail = array("d")
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, v: int) -> None:
        if v > self.counters.get(key, 0):
            self.counters[key] = v

    def wrap(self, fn: Callable, layer: str, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Return fn recording one span per call under `layer`."""
        nid = self._ids.setdefault(layer, len(self._ids))
        if nid == len(self.names):
            self.names.append(layer)
        clock, opened = self.clock, self._open
        names, parents = self.name, self.parent
        starts, ends, tails = self.start, self.end, self.tail

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(opened[-1] if opened else -1)
            opened.append(idx)
            starts.append(clock())
            ends.append(0.0)
            tails.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = tails[idx] = clock()
                opened.pop()
            if after is not None:
                after(self, args, result, token)
                tails[idx] = clock()
            return result

        return traced

    def dump(self, path: str, op: int, extra: dict) -> None:
        """Write the spans as one JSON header line followed by the arrays."""
        header = {
            "op": op,
            "names": self.names,
            "spans": len(self.start),
            "counters": {**self.counters, **extra},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.tail):
                arr.tofile(fh)


def _resolve(obj, path: str):
    owner = obj
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, path.split(".")[-1]


def install(tracer: Tracer, layers: Iterable[tuple] = LAYERS) -> list[tuple]:
    """Wrap every target in each qballot namespace that binds it.

    Modules are taken from sys.modules: `qballot.ballot` as an attribute of
    the package is the function `ballot`, not the module.  Returns the
    replaced bindings as (namespace, name, original) for `uninstall`.
    """
    layers = list(layers)
    for modname, _, _ in layers:
        importlib.import_module(modname)
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "qballot" or k.startswith("qballot.")) and m is not None]
    replaced = []
    for modname, path, layer in layers:
        owner, attr = _resolve(sys.modules[modname], path)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(original, layer, *HOOKS.get(layer, (None, None)))
        for mod in modules:
            spaces = [mod] + [v for v in vars(mod).values() if isinstance(v, type)
                              and v.__module__ == mod.__name__]
            for space in spaces:
                for key, val in list(vars(space).items()):
                    if val is original:
                        setattr(space, key, wrapper)
                        replaced.append((space, key, original))
    return replaced


def uninstall(bindings: list[tuple]) -> None:
    for space, key, original in bindings:
        setattr(space, key, original)


# -- reading span files -------------------------------------------------------


def load(path: str) -> tuple[dict, dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = {}
        for key, code in (("name", "i"), ("parent", "i"), ("start", "d"),
                          ("end", "d"), ("tail", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            cols[key] = arr
    return header, cols


def summarize(loaded: Iterable[tuple[dict, dict[str, array]]]) -> dict[str, dict]:
    """Per-layer calls and self seconds, summed over span files read by
    `load`, plus the counters the files carried."""
    layers = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_NAMES}
    counters: dict[str, int] = {}
    for header, cols in loaded:
        names, parent = header["names"], cols["parent"]
        start, end, tail = cols["start"], cols["end"], cols["tail"]
        covered = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += tail[i] - start[i]
        for i, nid in enumerate(cols["name"]):
            row = layers.setdefault(names[nid], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end[i] - start[i] - covered[i]
        for key, v in header["counters"].items():
            if key in PEAKS:
                counters[key] = max(counters.get(key, 0), v)
            else:
                counters[key] = counters.get(key, 0) + v
    return {"layers": layers, "counters": counters}
