"""Record the benchmark's reference outputs and its baseline.

    python3 perfbench/record.py references
        Writes perfbench/reference.json: the sha256 of the stdout of every op
        any seed can produce, and the number of exponent points of each
        polytope, computed by the qballot under `src/` (record it at the
        commit whose output is the reference).

    python3 perfbench/record.py baseline
        Runs run.py with seed 1 on every workload, untraced and traced, and
        writes perfbench/baseline.json: machine info, each workload's op list
        and why it was chosen, every metric, and the findings they show.

    python3 perfbench/record.py steadiness
        Runs run.py untraced on every workload for two sets of ten seeds,
        then traced twice with seed 1, and writes perfbench/steadiness.json:
        every end-to-end value per seed, each set's median and quartile
        spread, the shift of the medians between the sets, and whether the
        count metrics of the two traced runs are equal.

Every run measures for the `run_seconds` of BENCHMARK.json.  Run from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 1
STEADY_SEEDS = (tuple(range(101, 111)), tuple(range(201, 211)))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bits", "bytes")


def record_references() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("QBALLOT_PATH_CAP", None)
    import qballot.cli

    def stdout_of(argv: list[str]) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qballot.cli.main(argv)
        if code != 0:
            raise SystemExit(f"record.py: {' '.join(argv)} exited {code}")
        return buf.getvalue().encode()

    sha, points = {}, {}
    for op in workloads.reference_ops():
        sha[op.key] = workloads.digest(stdout_of(list(op.argv)))
        if op.argv[0] == "polytope":
            as_json = [a if a != "svg" else "json" for a in op.argv]
            points[op.key] = len(json.loads(stdout_of(as_json))["points"])
    return {"sha256": sha, "points": points}


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "system": platform.system()}


def run_bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    print(out, end="", flush=True)
    return json.loads(out.strip().split("\n")[-1])


def findings(results: dict) -> dict:
    """What the seed-commit numbers show; recorded as data, nothing fixed."""
    def e2e(w, k):
        return results[w]["end_to_end"]["metrics"][k]["value"]

    def layer(w, k):
        return results[w]["per_layer"]["metrics"][k]["value"]

    def self_times(w):
        return {k: v["value"] for k, v in results[w]["per_layer"]["metrics"].items()
                if k.endswith(".self_s")}

    sweep, cache = self_times("sweep"), self_times("cache")
    persist = cache["ballot.cache_load.self_s"] + cache["ballot.cache_save.self_s"]
    return {
        "cache_lookup_over_recompute": layer("cache", "lookup_op_s") / layer("cache", "recompute_op_s"),
        "verify_gcd_useful_ratio": layer("verify", "qlaurent.gcd.useful_ratio"),
        "sweep_mul_is_largest_layer": max(sweep, key=sweep.get) == "qlaurent.mul.self_s",
        "sweep_gcd_calls": layer("sweep", "qlaurent.gcd.calls"),
        "verify_gcd_plus_paths_over_mul": (
            layer("verify", "qlaurent.gcd.self_s") + layer("verify", "ballot.paths.self_s"))
        / layer("verify", "qlaurent.mul.self_s"),
        "cache_load_plus_save_exceeds_every_other_layer": all(
            persist > v for k, v in cache.items()
            if k not in ("ballot.cache_load.self_s", "ballot.cache_save.self_s")),
        "trace_overhead_ratio": {w: layer(w, "trace.overhead_ratio") for w in results},
        "wall_ref": {w: e2e(w, "wall_ref") for w in results},
        "wall_s": {w: layer(w, "wall_s") for w in results},
    }


def record_baseline() -> dict:
    results = {}
    for name in workloads.WHY:
        results[name] = {
            "why": workloads.WHY[name],
            "ops": [op.key for op in workloads.ops_for(name, SEED)],
            "end_to_end": run_bench(name, SEED, 0),
            "per_layer": run_bench(name, SEED, 1),
        }
    return {"seed": SEED, "run_seconds": BENCH["run_seconds"], "machine": machine(),
            "workloads": results, "findings": findings(results)}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_steadiness() -> dict:
    names = [m["name"] for m in BENCH["end_to_end"]]
    values = {w: [{m: [] for m in names} for _ in STEADY_SEEDS] for w in workloads.WHY}
    for i, seeds in enumerate(STEADY_SEEDS):
        for w in workloads.WHY:
            for seed in seeds:
                metrics = run_bench(w, seed, 0)["metrics"]
                for m in names:
                    values[w][i][m].append(metrics[m]["value"])
    results = {}
    for w in workloads.WHY:
        sets = [{"seeds": list(seeds), "values": vals,
                 "median": {m: statistics.median(vals[m]) for m in names},
                 "spread": {m: spread(vals[m]) for m in names}}
                for seeds, vals in zip(STEADY_SEEDS, values[w])]
        traced = [run_bench(w, SEED, 1)["metrics"] for _ in range(2)]
        counts = [{k: v["value"] for k, v in t.items() if v["unit"] in COUNT_UNITS}
                  for t in traced]
        results[w] = {
            "sets": sets,
            "median_shift": {m: sets[1]["median"][m] / sets[0]["median"][m] - 1
                             for m in names},
            "counts_repeat": counts[0] == counts[1],
            "trace_overhead_ratio": [t["trace.overhead_ratio"]["value"] for t in traced],
        }
    return {"run_seconds": BENCH["run_seconds"], "machine": machine(),
            "bounds": {m["name"]: m["bound"] for m in BENCH["end_to_end"]},
            "workloads": results}


RECORDS = {
    "references": (record_references, "reference.json"),
    "baseline": (record_baseline, "baseline.json"),
    "steadiness": (record_steadiness, "steadiness.json"),
}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="record reference outputs, the baseline or "
                                "the benchmark's steadiness")
    p.add_argument("what", choices=RECORDS)
    record, filename = RECORDS[p.parse_args(argv).what]
    path = HERE / filename
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
