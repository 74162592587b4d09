"""Tests of the benchmark itself: tracing wrappers, op generation, checks and
metric names.  Run with `python3 -m pytest perfbench/tests` from the root."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import qballot.analysis  # noqa: E402
from qballot.qlaurent import ExactnessError, QLaurent, ql_divexact  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def traced():
    tracer = layers.Tracer()
    bindings = layers.install(tracer)
    try:
        yield tracer
    finally:
        layers.uninstall(bindings)


def calls(tracer: layers.Tracer, layer: str) -> int:
    nid = tracer.names.index(layer)
    return sum(1 for n in tracer.name if n == nid)


def test_wrapper_returns_value_and_reraises():
    tracer = layers.Tracer()

    def f(x):
        if x < 0:
            raise ExactnessError("negative")
        return x * 2

    g = tracer.wrap(f, "t")
    assert g(21) == 42
    with pytest.raises(ExactnessError):
        g(-1)
    assert list(tracer.name) == [0, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer._open == []


def test_installed_wrapper_reraises_exactness_error(traced):
    a = QLaurent({0: 1, 1: 1})
    b = QLaurent({0: 1, 2: 1})
    with pytest.raises(ExactnessError):
        qballot.qlaurent.ql_divexact(a, b)
    assert calls(traced, "qlaurent.divexact") == 1
    assert qballot.qlaurent.ql_divexact(a * b, b) == a


def test_name_bound_by_from_import_is_counted(traced):
    a = QLaurent({0: 1, 1: 1})
    b = QLaurent({0: -1, 2: 1})
    g = qballot.analysis.poly_gcd(a, b)
    assert g == a
    assert calls(traced, "qlaurent.gcd") == 1
    assert traced.counters["qlaurent.gcd.useful"] == 1


def test_uninstall_restores_originals():
    original = qballot.analysis.poly_gcd
    bindings = layers.install(layers.Tracer())
    assert qballot.analysis.poly_gcd is not original
    layers.uninstall(bindings)
    assert qballot.analysis.poly_gcd is original
    assert ql_divexact is qballot.qlaurent.ql_divexact


def test_self_time_excludes_children(tmp_path):
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "qlaurent.mul")
    outer = tracer.wrap(lambda: inner(), "qcore.from_qbinom")
    outer()
    path = tmp_path / "spans.bin"
    tracer.dump(str(path), 7, {})
    header, cols = layers.load(str(path))
    assert header["op"] == 7
    summary = layers.summarize([(header, cols)])["layers"]
    # outer: start 0, end 3; inner: start 1, end 2.
    assert summary["qcore.from_qbinom"] == {"calls": 1, "self_s": 2.0}
    assert summary["qlaurent.mul"] == {"calls": 1, "self_s": 1.0}


# Stand-ins for traceboot.py: both print the op's right output and exit 0,
# one without writing its span file, one leaving a truncated span file.
NO_SPANS = "import sys\nsys.stdout.write('f(4,3) = 14\\n')\n"
TRUNCATED_SPANS = NO_SPANS + (
    "import json\n"
    "header = {'op': 0, 'names': [], 'spans': 5, 'counters': {}}\n"
    "open(sys.argv[1], 'w').write(json.dumps(header) + '\\n')\n")


@pytest.mark.parametrize("boot", [NO_SPANS, TRUNCATED_SPANS], ids=["missing", "truncated"])
def test_traced_op_without_span_file_fails(tmp_path, monkeypatch, boot):
    out = "f(4,3) = 14\n"
    (tmp_path / "traceboot.py").write_text(boot)
    monkeypatch.setattr(run, "HERE", tmp_path)
    op = Op("recompute", ("ballot", "--n", "4", "--k", "3"))
    refs = {"sha256": {op.key: workloads.digest(out.encode())}, "points": {}}
    result = run.run_pass([op], refs, True, tmp_path, run.child_env())
    assert [r.error for r in result.results] == ["no span file"]
    assert result.trace["layers"]["cli.main"] == {"calls": 0, "self_s": 0.0}


def test_op_times_in_reference_units():
    ops = [Op("recompute", ("ballot", "--n", str(n), "--k", "3")) for n in (4, 5)]
    p = run.Pass(results=[run.OpResult(op, t, 1.0, b"", None) for op, t in zip(ops, (4.0, 2.0))],
                 ref_s=[1.0, 3.0, 1.0])
    assert p.op_ref == [2.0, 1.0]
    assert run.end_to_end([p], [0.5])["wall_ref"] == 3.0
    assert run.end_to_end([p], [0.5])["op_max_ref"] == 2.0


def test_setup_times_at_reference_speed(tmp_path, monkeypatch):
    ref_s = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "spawn", lambda *args: (0.3, 0, 1.0))
    monkeypatch.setattr(run, "run_reference", lambda *args: next(ref_s))
    raw, scaled = run.measure_setup({}, tmp_path, 2)
    assert raw == [0.3, 0.3]
    assert scaled == pytest.approx([0.3 / 0.2 * run.REF_S, 0.3 / 0.25 * run.REF_S])


def test_reference_loop_runs_without_qballot(tmp_path):
    assert "qballot" not in run.REF_CODE
    assert run.run_reference(tmp_path, {}) > 0  # no PYTHONPATH to src/


def test_mul_counters(traced):
    a = QLaurent({0: 1, 1: 1})
    b = QLaurent({0: 1, 1: -1, 2: 255})
    a * b
    3 * a
    assert calls(traced, "qlaurent.mul") == 2
    assert traced.counters["qlaurent.mul.term_pairs"] == 2 * 3 + 2 * 1
    assert traced.counters["qlaurent.mul.max_coeff_bits"] == 8


def test_generator_is_deterministic_per_seed():
    for name in workloads.WHY:
        assert workloads.ops_for(name, 5) == workloads.ops_for(name, 5)
    cache_lists = {tuple(workloads.ops_for("cache", s)) for s in range(20)}
    assert len(cache_lists) > 1


def test_every_seed_draws_recorded_ops():
    refs = json.loads((HERE / "reference.json").read_text())
    for name in workloads.WHY:
        for seed in range(200):
            for op in workloads.ops_for(name, seed):
                assert op.key in refs["sha256"], op.key


def test_cache_pass_has_builds_lookups_and_recomputes():
    ops = workloads.ops_for("cache", 3)
    kinds = [op.kind for op in ops]
    assert kinds[0] == "build"
    assert kinds.count("lookup") == len(workloads.LOOKUP_PLAN)
    assert [op.key for op in ops if op.kind == "lookup"] == \
        [op.key for op in ops if op.kind == "recompute"]


def test_checks_reject_wrong_output():
    refs = {"sha256": {}, "points": {}}
    op = Op("lookup", ("ballot", "--n", "4", "--k", "3"))
    good = b"f(4,3|q) = q^3+q^4+2q^5+3q^6+3q^7+3q^8+q^9\nf(4,3) = 14\n"
    bad = good.replace(b"= 14", b"= 15")
    refs["sha256"][op.key] = workloads.digest(good)
    assert workloads.check(op, 0, good, refs) is None
    assert workloads.check(op, 1, good, refs) == "exit code 1"
    assert "reference" in workloads.check(op, 0, bad, refs)
    refs["sha256"][op.key] = workloads.digest(bad)
    assert "want 'f(4,3) = 14'" in workloads.check(op, 0, bad, refs)


def test_suite_and_conjecture_checks():
    op = Op("suite", ("verify", "andrews", "--max-n", "5"))
    assert workloads._check_suite(op, "x\nsuite andrews: 0/5 ok (reported)\n") is None
    assert workloads._check_suite(op, "suite andrews: 5/5 ok (pass)\n") is not None
    conj = Op("sweep", ("conjecture", "--max-n", "3"))
    assert workloads._check_conjecture(conj, "n=2: ok\nn=3: ok\nconjecture 2..3: all ok\n") is None
    assert workloads._check_conjecture(conj, "n=2: ok\nconjecture 2..3: all ok\n") is not None


def test_svg_check():
    svg = ('<svg xmlns="http://www.w3.org/2000/svg"><circle cx="1" cy="2"/>'
           '<circle cx="3" cy="2"/></svg>')
    assert workloads._check_svg(svg, 2) is None
    assert workloads._check_svg(svg, 3) is not None
    assert workloads._check_svg(svg[:-3], 2).startswith("SVG is not well-formed")


def test_metric_names_and_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    for name in ("fail_ratio", *run.OP_KIND_METRICS):
        assert NAME.fullmatch(name)


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_bytes(f.read_bytes())
    (bench_dir / "reference.json").write_bytes((HERE / "reference.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
