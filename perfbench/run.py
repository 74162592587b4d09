"""Cold-process benchmark of the qballot CLI.

    python3 perfbench/run.py --workload {sweep,verify,cache} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `src/`.  One
client runs one op at a time (a closed loop), each op a fresh
`python -m qballot.cli` process timed from spawn to exit.  A pass runs the
workload's whole op list; passes repeat until S seconds, counted from the
start of the set-up measurement, are used, and every timing is the median
over passes.

The speed of this kind of shared machine drifts by tens of percent over
minutes, and CPU time drifts with wall time.  So an untraced pass also runs a
fixed pure-Python reference loop (`REF_CODE`, which does not import qballot)
as a cold child before the first op and after every op, and the gated op
times are given in reference units: an op's seconds divided by the mean of
the two reference runs around it.  A change to qballot moves them as it moves
seconds; a slower or faster machine moves op and reference together.  The
set-up processes are bracketed the same way, and setup_s is given in seconds
at a fixed reference speed (`REF_S`).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones: each
round is then one untraced pass and one pass whose children start from
`traceboot.py`, which wraps the layers from outside the package.  Every op's
output is checked (see workloads.check); traced output must equal untraced.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Temporary files (cache files, outputs, spans) live in a private
directory under `.perfbench_tmp/` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SETUP_REPS = 15
OP_TIMEOUT_S = 60.0
SETUP_CODE = "import qballot.cli as cli; cli.build_parser()"
# About 0.25 s of interpreter loop, dict stores and big-int arithmetic.
REF_CODE = (
    "d = {}\ns = 0\nfor i in range(400000):\n    s += (i * i) % 7919\n    d[i & 1023] = s\n"
    "x = 3 ** 20000\nfor i in range(300):\n    x = (x * 12345) // 7\n")

# "ref" is one run of REF_CODE in the same pass (see the module docstring).
# setup_s must be in seconds, so it is given at the reference speed: the
# seconds on a machine where REF_CODE takes REF_S, about its median on the
# 2-vCPU Xeon VM that recorded baseline.json.
REF_S = 0.2
END_TO_END = {
    "wall_ref": "ref",
    "op_max_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The same pass times in seconds, and the reference loop's own time.
SECONDS = {"wall_s": "s", "op_max_s": "s", "ref_loop_s": "s"}

# Timings of the cache workload's op kinds (0 on workloads without them).
OP_KIND_METRICS = {"build_op_s": "build", "lookup_op_s": "lookup",
                   "recompute_op_s": "recompute"}

COUNTERS = {
    "qlaurent.mul.term_pairs": "count",
    "qlaurent.mul.max_coeff_bits": "bits",
    "ballot.table_entries": "count",
    "ballot.cache_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in layers.LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["qlaurent.gcd.useful_ratio"] = "ratio"
    units["ballot.table_get.hit_ratio"] = "ratio"
    units["cli.out_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    units.update({name: "s" for name in OP_KIND_METRICS})
    units.update(SECONDS)
    return units


@dataclass
class OpResult:
    op: Op
    seconds: float
    rss_mb: float
    out: bytes
    error: Optional[str]


@dataclass
class Pass:
    results: list[OpResult] = field(default_factory=list)
    trace: Optional[dict] = None  # layers.summarize() of a traced pass
    ref_s: list[float] = field(default_factory=list)  # untraced: around each op

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def op_ref(self) -> list[float]:
        """Each op's time over the mean of the reference runs around it."""
        return [r.seconds * 2 / (self.ref_s[i] + self.ref_s[i + 1])
                for i, r in enumerate(self.results)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("QBALLOT_PATH_CAP", None)
    return env


def spawn(cmd: list[str], out_path: Path, err_path: Path, env: dict) -> tuple[float, int, float]:
    """Run cmd to completion; return (seconds, exit code, max RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_reference(tmp: Path, env: dict) -> float:
    seconds, code, _ = spawn([sys.executable, "-c", REF_CODE], tmp / "ref.out",
                             tmp / "ref.err", env)
    if code != 0:
        sys.stderr.write((tmp / "ref.err").read_text())
        raise SystemExit(f"run.py: the reference loop failed (exit {code})")
    return seconds


def run_pass(ops: list[Op], refs: dict, traced: bool, tmp: Path, env: dict) -> Pass:
    pass_dir = Path(tempfile.mkdtemp(dir=tmp))
    cache_file = pass_dir / "cache.json"
    result = Pass()
    spans = []
    if not traced:
        result.ref_s.append(run_reference(pass_dir, env))
    for i, op in enumerate(ops):
        argv = list(op.argv) + (["--cache", str(cache_file)] if op.cached else [])
        spans_path = pass_dir / f"spans{i}.bin"
        if traced:
            cmd = [sys.executable, str(HERE / "traceboot.py"), str(spans_path), str(i), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "qballot.cli", *argv]
        out_path = pass_dir / f"out{i}"
        seconds, code, rss = spawn(cmd, out_path, pass_dir / f"err{i}", env)
        out = out_path.read_bytes()
        error = workloads.check(op, code, out, refs)
        if traced:
            # An op killed, crashed or broken before its exit writes no (or
            # a partial) span file: it fails, and its spans are left out.
            try:
                spans.append(layers.load(str(spans_path)))
            except (OSError, ValueError, EOFError):
                error = error or "no span file"
        else:
            result.ref_s.append(run_reference(pass_dir, env))
        result.results.append(OpResult(op, seconds, rss, out, error))
    if traced:
        result.trace = layers.summarize(spans)
    shutil.rmtree(pass_dir)
    return result


def measure_setup(env: dict, tmp: Path, reps: int) -> tuple[list[float], list[float]]:
    """Seconds of `reps` cold processes that import qballot.cli and build its
    parser, as measured and at the reference speed (each over the mean of the
    reference runs around it, times REF_S).  A first, unmeasured, one fills
    the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, scaled, ref_s = [], [], []
    for i in range(reps + 1):
        seconds, code, _ = spawn(cmd, tmp / "setup.out", tmp / "setup.err", env)
        if code != 0:
            sys.stderr.write((tmp / "setup.err").read_text())
            raise SystemExit(f"run.py: importing qballot.cli failed (exit {code})")
        if i:
            times.append(seconds)
        if reps:
            ref_s.append(run_reference(tmp, env))
        if i:
            scaled.append(seconds * 2 / (ref_s[-2] + ref_s[-1]) * REF_S)
    return times, scaled


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    return {
        "wall_ref": median([sum(p.op_ref) for p in passes]),
        "op_max_ref": median([max(p.op_ref) for p in passes]),
        "setup_s": median(setup),
        "peak_rss_mb": median([max(r.rss_mb for r in p.results) for p in passes]),
    }


def pass_seconds(passes: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": median([p.wall_s for p in passes]),
        "op_max_s": median([max(r.seconds for r in p.results) for p in passes]),
        "ref_loop_s": median([t for p in passes for t in p.ref_s]),
    }


def op_kind_times(passes: list[Pass]) -> dict[str, float]:
    return {
        name: median([r.seconds for p in passes for r in p.results if r.op.kind == kind])
        for name, kind in OP_KIND_METRICS.items()
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    rows = []
    for p in traced:
        stats, counters = p.trace["layers"], p.trace["counters"]
        row: dict[str, float] = {}
        for name in layers.LAYER_NAMES:
            row[f"{name}.calls"] = stats[name]["calls"]
            row[f"{name}.self_s"] = stats[name]["self_s"]
        for name in COUNTERS:
            row[name] = counters.get(name, 0)
        row["qlaurent.gcd.useful_ratio"] = ratio(
            counters.get("qlaurent.gcd.useful", 0), stats["qlaurent.gcd"]["calls"])
        calls = stats["ballot.table_get"]["calls"]
        row["ballot.table_get.hit_ratio"] = ratio(
            calls - counters.get("ballot.table_get.misses", 0), calls)
        row["cli.out_bytes"] = sum(len(r.out) for r in p.results)
        rows.append(row)
    metrics = {name: median([row[name] for row in rows]) for name in rows[0]}
    metrics["trace.overhead_ratio"] = (
        median([p.wall_s for p in traced]) / median([p.wall_s for p in plain]) - 1.0)
    metrics.update(op_kind_times(plain))
    metrics.update(pass_seconds(plain))
    return metrics


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(ops: list[Op], refs: dict, seconds: float, trace: bool,
               tmp: Path, env: dict) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes (each followed by a traced one when tracing) until
    another round as slow as the slowest so far would overrun `seconds`;
    at least one round."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    slowest = 0.0
    while True:
        round_t0 = time.perf_counter()
        plain.append(run_pass(ops, refs, False, tmp, env))
        if trace:
            traced.append(run_pass(ops, refs, True, tmp, env))
            for t, u in zip(traced[-1].results, plain[-1].results):
                if t.error is None and t.out != u.out:
                    t.error = "traced stdout differs from untraced"
        now = time.perf_counter()
        slowest = max(slowest, now - round_t0)
        if now - started + slowest > seconds:
            return plain, traced


def measure(args: argparse.Namespace, refs: dict, tmp: Path) -> tuple[dict, int, int]:
    env = child_env()
    started = time.perf_counter()
    setup_wall, setup = measure_setup(env, tmp, 0 if args.trace else SETUP_REPS)
    ops = workloads.ops_for(args.workload, args.seed)
    left = args.seconds - (time.perf_counter() - started)
    plain, traced = run_rounds(ops, refs, left, bool(args.trace), tmp, env)
    failures = [(r.op.key, r.error) for p in plain + traced for r in p.results if r.error]
    attempted = sum(len(p.results) for p in plain + traced)

    if args.trace:
        metrics = per_layer(plain, traced)
        units = per_layer_units()
        shown = dict(metrics)
    else:
        metrics = end_to_end(plain, setup)
        units = dict(END_TO_END)
        shown = {**metrics, **pass_seconds(plain), "setup_wall_s": median(setup_wall)}
        if args.workload == "cache":
            shown.update(op_kind_times(plain))

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + "
          f"{len(traced)} traced passes of {len(ops)} ops")
    print("pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in plain)
          + (" | traced: " + " ".join(f"{p.wall_s:.3f}" for p in traced) if traced else ""))
    for key, why in failures:
        print(f"FAILED {key}: {why}")
    print(f"{'fail_ratio':36s} {ratio(len(failures), attempted):16.6f} ratio "
          f"({len(failures)} of {attempted} ops)")
    every_unit = {**per_layer_units(), **END_TO_END, "setup_wall_s": "s"}
    for name, value in shown.items():
        print(f"{name:36s} {value:16.6f} {every_unit[name]}")
    result = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result, attempted, len(failures)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qballot" / "cli.py").is_file():
        print(f"run.py: no qballot source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs_path = HERE / "reference.json"
    if not refs_path.is_file():
        print(f"run.py: missing {refs_path}; record it with record.py", file=sys.stderr)
        return 2
    refs = json.loads(refs_path.read_text())
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        metrics, attempted, failed = measure(args, refs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
