"""End-to-end coverage of the qballot command-line interface."""

import contextlib
import functools
import io
import json
import marshal
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qballot.analysis as analysis
import qballot.ballot as ballot_mod
import qballot.cli as cli
from qballot.ballot import BallotTable, qballot
from qballot.cli import main
from qballot.qlaurent import ONE, ExactnessError
from qballot.report import CheckResult, SuiteReport

# ---------------------------------------------------------------------------
# tables


def test_table1_text(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "n=0: 1"
    assert lines[-1] == "n=6: 1, 6, 20, 48, 90, 132, 132"


def test_table2_text(capsys):
    assert main(["table", "2", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "n=0: 1\nn=1: 1, q\nn=2: 1, q+q^2, q^2+q^3\n"


def test_table_csv(capsys):
    assert main(["table", "2", "--max-n", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,k,polynomial"
    assert "2,2,q^2+q^3" in out.splitlines()


def test_table_json(capsys):
    assert main(["table", "1", "--max-n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["table"] == 1
    assert data["rows"][3] == {"n": 3, "entries": [1, 3, 5, 5]}


# ---------------------------------------------------------------------------
# single values


def test_ballot_text(capsys):
    assert main(["ballot", "--n", "4", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "f(4,3|q) = q^3+q^4+2q^5+3q^6+3q^7+3q^8+q^9\n"
        "f(4,3) = 14\n"
    )


def test_ballot_json(capsys):
    assert main(["ballot", "--n", "2", "--k", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "n": 2,
        "k": 2,
        "value": 2,
        "polynomial": "q^2+q^3",
        "terms": [[2, "1"], [3, "1"]],
    }


def test_catalan_text(capsys):
    assert main(["catalan", "--max-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "C_4(q) = 1+q+2q^2+3q^3+3q^4+3q^5+q^6" in lines
    assert "reversed C_4(q) = 1+3q+3q^2+3q^3+2q^4+q^5+q^6" in lines


def test_catalan_csv(capsys):
    assert main(["catalan", "--max-n", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "n,catalan,reversed",
        "0,1,1",
        "1,1,1",
        "2,1+q,1+q",
    ]


# ---------------------------------------------------------------------------
# the polynomial family


def test_cx_qbinom_text(capsys):
    assert main(["cx", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "C_3(x|q) = (1+q) + (q+q^2+q^3)*qbinom(x,1) + q^4*qbinom(x,2)\n"


def test_cx_monomial_text(capsys):
    assert main(["cx", "--n", "3", "--basis", "monomial"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "C_3(x|q) = 1+q + ((q+2q^2+2q^3)/(1+q))x + (q^4/(1+q))x^2\n"
    )


@pytest.mark.parametrize("method", ["difference", "theorem1", "recurrence"])
def test_cx_methods_agree(method, capsys):
    assert main(["cx", "--n", "5", "--method", method, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == method
    assert data["basis"] == "qbinom"
    assert data["coeffs"][0] == "1+3q+3q^2+3q^3+2q^4+q^5+q^6"  # reversed C_4


def test_cx_rejects_zero(capsys):
    assert main(["cx", "--n", "0"]) == 2
    assert "qballot:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verification suites


def test_verify_passing_suite(capsys):
    assert main(["verify", "carlitz", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "suite carlitz: 10/10 ok (pass)"


def test_verify_json(capsys):
    assert main(["verify", "thm2", "--max-n", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "thm2"
    assert data["passed"] is True


def test_verify_andrews_reports_clean_exit(capsys):
    assert main(["verify", "andrews", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "[MISMATCH]" in out
    assert out.splitlines()[-1].endswith("(reported)")


def test_verify_exit_one_on_failure(tmp_path, capsys, monkeypatch):
    failing = SuiteReport("carlitz")
    failing.results.append(CheckResult("convolution-area", 1, None, False, "boom"))
    monkeypatch.setattr(analysis, "run_suite", lambda name, maxn: failing)
    assert main(["verify", "carlitz"]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    # a failed verification still saves the cache
    cache = tmp_path / "cache.json"
    assert main(["verify", "carlitz", "--cache", str(cache)]) == 1
    assert json.loads(cache.read_text())["schema"] == BallotTable.SCHEMA


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "--max-n", "1"],
        ["polytope", "--max-n", "1"],
        ["corollary", "--max-n", "0"],
        ["carlitz", "--max-n", "0"],
        ["q1_identities", "--max-n", "0"],
        ["andrews", "--max-n", "0"],
        ["thm1", "--max-n", "0"],
        ["thm2", "--max-n", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_verify_without_checks_exits_two(capsys, argv):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    suite, _, maxn = argv
    assert captured.err == f"qballot: suite {suite} runs no checks at --max-n {maxn}\n"


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# conjecture sweep


def test_conjecture_text(capsys):
    assert main(["conjecture", "--max-n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=2: ok"
    assert lines[-1] == "conjecture 2..8: all ok"


def test_conjecture_json(capsys):
    assert main(["conjecture", "--max-n", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_ok"] is True
    assert [r["n"] for r in data["results"]] == [2, 3, 4, 5]
    assert data["results"][0]["coefficient_stats"] == [[0, 0], [1, 1]]


def test_conjecture_exit_one_on_failure(capsys, monkeypatch):
    from qballot.analysis import NumeratorReport

    bad = NumeratorReport(
        n=2,
        numerator=(ONE,),
        denominator=ONE,
        is_polynomial=False,
        is_irreducible_fraction=True,
        all_coeffs_positive=True,
        coefficient_stats=((0, 0),),
    )
    monkeypatch.setattr(analysis, "theorem1_numerator", lambda n: bad)
    assert main(["conjecture", "--max-n", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_internal_exactness_error_exits_three(capsys, monkeypatch):
    from qballot.qlaurent import ExactnessError

    def broken(n):
        raise ExactnessError("remainder left")

    monkeypatch.setattr(analysis, "theorem1_numerator", broken)
    assert main(["conjecture", "--max-n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qballot: internal error: remainder left\n"


def test_negative_path_cap_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("QBALLOT_PATH_CAP", "-5")
    assert main(["verify", "prop1", "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["qballot: QBALLOT_PATH_CAP must be >= 0, got '-5'"]


def test_conjecture_requires_two(capsys):
    assert main(["conjecture", "--max-n", "1"]) == 2
    assert "must be >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the sweep split over forked children

SWEEP = ["conjecture", "--max-n", "9"]  # n = 2..9


@pytest.fixture
def sweep_cpus(monkeypatch):
    """Set the CPU count the sweep sees; returns the pids it forked."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def set_cpus(k):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(k)), raising=False
        )
        return forks

    return set_cpus


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial(capsys, sweep_cpus, argv):
    sweep_cpus(1)
    code = main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [SWEEP + ["--format", fmt] for fmt in ("text", "json", "csv")]
    + [["verify", "conjecture", "--max-n", "9"]],
    ids=["text", "json", "csv", "verify"],
)
def test_split_sweep_prints_the_serial_output(argv, capsys, sweep_cpus):
    serial = _serial(capsys, sweep_cpus, argv)
    assert serial[0] == 0
    for k in (2, 3):
        forks = sweep_cpus(k)
        before = len(forks)
        assert (main(argv), capsys.readouterr()) == serial
        assert len(forks) - before == k - 1
        _assert_no_child_left()


def test_split_sweep_keeps_the_largest_n(monkeypatch, sweep_cpus, capsys):
    parent, seen = os.getpid(), []
    real = analysis.theorem1_numerator

    def record(n):
        if os.getpid() == parent:
            seen.append(n)
        return real(n)

    monkeypatch.setattr(analysis, "theorem1_numerator", record)
    sweep_cpus(3)
    assert main(SWEEP) == 0
    assert seen == [9, 6, 3]  # 9, 8, ..., 2 dealt round-robin to 3 shares
    _assert_no_child_left()


def test_failed_child_share_is_recomputed(monkeypatch, sweep_cpus, capsys):
    serial = _serial(capsys, sweep_cpus, SWEEP)
    parent = os.getpid()
    real = analysis.theorem1_numerator

    def in_parent_only(n):
        if os.getpid() != parent:
            raise ExactnessError("fault in a child")
        return real(n)

    monkeypatch.setattr(analysis, "theorem1_numerator", in_parent_only)
    forks = sweep_cpus(3)
    assert (main(SWEEP), capsys.readouterr()) == serial
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.parametrize(
    "sent",
    [b"not marshal data", marshal.dumps([]), marshal.dumps([(2, True, True, True, ())])],
    ids=["garbage", "no-rows", "wrong-rows"],
)
def test_child_rows_that_miss_the_share_are_recomputed(
    sent, monkeypatch, sweep_cpus, capsys
):
    serial = _serial(capsys, sweep_cpus, SWEEP)
    parent = os.getpid()
    real_dumps = marshal.dumps
    monkeypatch.setattr(
        marshal, "dumps",
        lambda rows: real_dumps(rows) if os.getpid() == parent else sent,
    )
    sweep_cpus(2)
    assert (main(SWEEP), capsys.readouterr()) == serial
    _assert_no_child_left()


@pytest.mark.parametrize(
    "bad", [{4}, {9}, {4, 9}, {5, 8}], ids=["child", "parent", "both", "mixed"]
)
@pytest.mark.parametrize("exc", [ExactnessError, ValueError])
def test_sweep_error_is_the_serial_error(bad, exc, monkeypatch, sweep_cpus, capsys):
    # With 2 workers the parent's share is 9, 7, 5, 3 and the child's
    # 8, 6, 4, 2; the serial run raises at the smallest bad n.
    real = analysis.theorem1_numerator

    def broken(n):
        if n in bad:
            raise exc(f"bad n={n}")
        return real(n)

    monkeypatch.setattr(analysis, "theorem1_numerator", broken)
    serial = _serial(capsys, sweep_cpus, SWEEP)
    assert serial[0] == (3 if exc is ExactnessError else 2)
    assert serial[1].err.endswith(f"bad n={min(bad)}\n")
    sweep_cpus(2)
    assert (main(SWEEP), capsys.readouterr()) == serial
    _assert_no_child_left()


@pytest.mark.parametrize("case", ["one-cpu", "thread", "no-fork"])
def test_sweep_stays_serial(case, monkeypatch, sweep_cpus, capsys):
    serial = _serial(capsys, sweep_cpus, SWEEP)
    forks = sweep_cpus(1 if case == "one-cpu" else 2)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "thread":
        thread.start()
    try:
        assert (main(SWEEP), capsys.readouterr()) == serial
    finally:
        stop.set()
        if case == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_sweep_counts_cpus_without_an_affinity_mask(monkeypatch, sweep_cpus, capsys):
    serial = _serial(capsys, sweep_cpus, SWEEP)
    forks = sweep_cpus(2)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert (main(SWEEP), capsys.readouterr()) == serial
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_failed_fork_gives_the_serial_output(monkeypatch, sweep_cpus, capsys):
    serial = _serial(capsys, sweep_cpus, SWEEP)
    forks = sweep_cpus(3)
    real_fork = os.fork

    def second_fails():
        if forks:
            raise OSError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fails)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert (main(SWEEP), capsys.readouterr()) == serial
    assert len(forks) == 1
    _assert_no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_split_sweep_writes_the_serial_cache(tmp_path):
    # Cold processes, so the ballot table starts empty: the parent keeps
    # the largest n, and so fills the table a serial run fills.
    def cold(cpus, cache):
        code = (
            "import os, sys\n"
            f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
            "from qballot.cli import main\n"
            f"sys.exit(main(['conjecture', '--max-n', '12', '--cache', {str(cache)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout, cache.read_bytes()

    assert cold(3, tmp_path / "split.json") == cold(1, tmp_path / "serial.json")


# ---------------------------------------------------------------------------
# polytope export


def test_polytope_json(capsys):
    assert main(["polytope", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3
    assert data["upper_hull_slopes"] == ["1", "3"]
    assert data["hull"] == [[0, 0], [2, 0], [4, 2], [1, 1]]


def test_polytope_svg(capsys):
    assert main(["polytope", "--n", "4", "--format", "svg"]) == 0
    out = capsys.readouterr().out
    assert "<!-- generated by qballot -->" in out
    assert "P_4 exponents" in out


def test_polytope_rejects_one(capsys):
    assert main(["polytope", "--n", "1"]) == 2
    assert "must be >= 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output redirection and caching


def test_out_writes_file(tmp_path, capsys):
    dest = tmp_path / "row.csv"
    assert main(["ballot", "--n", "3", "--k", "2", "--format", "csv",
                 "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == "n,k,polynomial\n3,2,q^2+q^3+2q^4+q^5\n"


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    assert main(["table", "2", "--max-n", "5", "--cache", str(cache)]) == 0
    capsys.readouterr()
    blob = json.loads(cache.read_text())
    assert blob["schema"] == BallotTable.SCHEMA
    assert "5,5" in blob["entries"]
    # a fresh table primed from the cache agrees with direct computation
    t = BallotTable()
    t.load(str(cache))
    assert t.get(5, 4) == qballot(5, 4)
    # and the file is accepted on a second run
    assert main(["ballot", "--n", "2", "--k", "1", "--cache", str(cache)]) == 0
    capsys.readouterr()


def test_cache_bad_schema(tmp_path, capsys):
    cache = tmp_path / "bad.json"
    cache.write_text(json.dumps({"schema": "nope", "entries": {}}))
    assert main(["table", "2", "--cache", str(cache)]) == 2
    assert "schema" in capsys.readouterr().err


_SCHEMA = BallotTable.SCHEMA


def _v2(entries):
    return json.dumps({"schema": _SCHEMA, "entries": entries})


# f(0,0) = f(1,0) = 1 and f(1,1) = q, each right; the cases below edit them
_SMALL = {"0,0": [0, [1]], "1,0": [0, [1]], "1,1": [1, [1]]}


@pytest.mark.parametrize(
    "text",
    [
        # right shape, wrong value: must never print f(4,3|q) = 7
        _v2({"4,3": [0, [7]]}),
        # right value at q = 1 but nothing to prove the polynomial from
        _v2({"4,3": [0, [14]]}),
        # right value at q = 1, neighbours present, but f(1,1) is q, not 1
        _v2({**_SMALL, "1,1": [0, [1]]}),
        "[]",
        json.dumps({"schema": _SCHEMA}),
        _v2({"3,4": [0, [1]]}),
        _v2({"0,0": [0, ["1/1"]]}),
        _v2({"0,0": [0.0, [1]]}),
        _v2({"x": [0, [1]]}),
        "{",
        # [1.0] == [True] == [1] in Python: only a type check tells them apart
        _v2({"0,0": [0, [1.0]]}),
        _v2({"0,0": [0, [True]]}),
        _v2({**_SMALL, "1,1": [0, [0, 1]]}),
        _v2({**_SMALL, "1,1": [1, [1, 0]]}),
        _v2({**_SMALL, "1,1": [2, [1]]}),
        _v2({"0,0": [0]}),
        # the first format, [exponent, "integer"] pairs, is not read
        json.dumps({"schema": "qballot-table-v1", "entries": {"0,0": [[0, "1"]]}}),
    ],
    ids=["tampered", "unproven", "breaks-recurrence", "root-list", "no-entries", "k-gt-n",
         "fraction", "float-exponent", "bad-key", "not-json", "float-coefficient",
         "bool-coefficient", "zero-first", "zero-last", "offset-off-by-one", "no-row",
         "v1-schema"],
)
def test_cache_rejected(tmp_path, capsys, text):
    cache = tmp_path / "bad.json"
    cache.write_text(text)
    assert main(["ballot", "--n", "4", "--k", "3", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("qballot: cache ")
    assert cache.read_text() == text  # left as it was


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qballot.cli", *argv],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "entries",
    [
        # ballot(4000000, 4000000) alone is comb(8000000, 4000000)
        {"4000000,4000000": [0, [1]]},
        {**_SMALL, "1,1": [10**18, [1]]},
        {**_SMALL, "1,1": [1, [1] * 10**6]},
    ],
    ids=["huge-key", "huge-offset", "long-row"],
)
def test_cache_numbers_decide_no_work(tmp_path, entries):
    # Rejected in a cold process well within the timeout: no number read from
    # the file sets how much is computed or allocated.
    cache = tmp_path / "bad.json"
    cache.write_text(_v2(entries))
    proc = subprocess.run(
        [sys.executable, "-m", "qballot.cli", "ballot", "--n", "2", "--k", "1",
         "--cache", str(cache)],
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("qballot: cache "), proc.stderr


def test_cache_written_by_program_loads_back(tmp_path):
    cache = str(tmp_path / "cache.json")
    want = _cli("ballot", "--n", "9", "--k", "5").stdout
    assert _cli("ballot", "--n", "7", "--k", "4", "--cache", cache).returncode == 0
    small = (tmp_path / "cache.json").stat().st_size
    # load the small file, extend the table past it and save; then load that
    for _ in range(2):
        proc = _cli("ballot", "--n", "9", "--k", "5", "--cache", cache)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
    assert (tmp_path / "cache.json").stat().st_size > small
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]  # no temp files


def test_cache_saved_only_when_the_table_grows(tmp_path):
    cache = tmp_path / "cache.json"
    assert _cli("ballot", "--n", "9", "--k", "5", "--cache", str(cache)).returncode == 0
    stored = cache.stat()
    want = _cli("ballot", "--n", "7", "--k", "3").stdout
    proc = _cli("ballot", "--n", "7", "--k", "3", "--cache", str(cache))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
    kept = cache.stat()
    assert (kept.st_ino, kept.st_mtime_ns) == (stored.st_ino, stored.st_mtime_ns)
    # a lookup beyond the stored rows still rewrites the file
    assert _cli("ballot", "--n", "11", "--k", "5", "--cache", str(cache)).returncode == 0
    grown = cache.stat()
    assert (grown.st_ino, grown.st_mtime_ns) != (stored.st_ino, stored.st_mtime_ns)
    assert grown.st_size > stored.st_size


def _run_cold(argv):
    """main(argv) on an empty memo table, as in a fresh process: the run sees
    no entry that the cache file did not provide.  Returns (code, out, err)."""
    table = BallotTable()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(ballot_mod, "TABLE", table), \
            mock.patch.object(cli, "TABLE", table), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _uncached_out(argv):
    code, out, err = _run_cold(list(argv))
    assert (code, err) == (0, "")
    return out


@functools.cache
def _written_cache():
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "cache.json")
        assert _run_cold(["table", "2", "--max-n", "5", "--cache", str(path)])[0] == 0
        return path.read_bytes()


@st.composite
def _mutated_cache(draw):
    """A file the program wrote, edited either as JSON (a coefficient, an
    offset, an entry or a key changed, once or twice) or as bytes (a few
    replaced, deleted or inserted)."""
    blob = _written_cache()
    if draw(st.booleans()):
        data = json.loads(blob)
        entries = data["entries"]
        for _ in range(draw(st.integers(1, 2))):
            key = draw(st.sampled_from(sorted(entries)))
            row = entries[key]
            cs = row[1]
            i = draw(st.integers(0, len(cs) - 1)) if cs else None
            op = draw(st.sampled_from(
                ["coeff", "retype", "unit", "drop-coeff", "offset", "drop-entry", "move"]))
            if op == "coeff" and cs:
                cs[i] = draw(st.integers(-2, 3))
            elif op == "retype" and cs:  # equal in Python, not a JSON integer
                cs[i] = draw(st.sampled_from([float(cs[i]), cs[i] == 1, str(cs[i])]))
            elif op == "unit" and cs:  # moves 1 between two coefficients: same value at q = 1
                donors = [t for t, c in enumerate(cs) if type(c) is int and c > 1 and t != i]
                if donors and type(cs[i]) is int:
                    j = draw(st.sampled_from(donors))
                    cs[i] += 1
                    cs[j] -= 1
            elif op == "drop-coeff" and cs:
                del cs[i]
            elif op == "offset":
                row[0] += draw(st.sampled_from([-1, 1]))
            elif op == "drop-entry" and len(entries) > 1:
                del entries[key]
            elif op == "move":
                entries[f"{draw(st.integers(0, 7))},{draw(st.integers(0, 7))}"] = entries.pop(key)
        return json.dumps(data).encode()
    blob = bytearray(blob)
    piece = st.one_of(
        st.binary(min_size=1, max_size=2),
        st.sampled_from([b"0", b"1", b"2", b"9", b",", b"-", b'"', b"]", b" "]),
    )
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("rdi"))
        i = draw(st.integers(0, len(blob)))
        new = draw(piece)
        if op == "r":
            blob[i:i + len(new)] = new
        elif op == "d":
            del blob[i:i + len(new)]
        else:
            blob[i:i] = new
    return bytes(blob)


# Small n and k, mostly inside the 0 <= k <= n <= 5 triangle the file holds.
_FUZZ_ARGV = st.one_of(
    st.tuples(st.just("ballot"), st.just("--n"), st.integers(0, 6).map(str),
              st.just("--k"), st.integers(0, 6).map(str)),
    st.tuples(st.just("table"), st.just("2"), st.just("--max-n"), st.integers(0, 6).map(str)),
    st.tuples(st.just("catalan"), st.just("--max-n"), st.integers(0, 6).map(str)),
)


@given(
    argv=st.tuples(_FUZZ_ARGV, st.sampled_from(["text", "json", "csv"])).map(
        lambda a: (*a[0], "--format", a[1])
    ),
    blob=st.one_of(st.binary(max_size=64), _mutated_cache()),
)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_fuzz_cache_bytes(tmp_path, argv, blob):
    cache = tmp_path / "cache.json"  # rewritten by every example
    cache.write_bytes(blob)
    code, out, err = _run_cold([*argv, "--cache", str(cache)])
    assert code in (0, 2)
    if code == 0:
        assert (out, err) == (_uncached_out(argv), "")
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qballot: cache "), err
        assert cache.read_bytes() == blob


def test_unreadable_out_path(tmp_path, capsys):
    dest = tmp_path / "missing-dir" / "x.txt"
    assert main(["catalan", "--out", str(dest)]) == 2
    assert "qballot:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors and determinism


def test_usage_errors():
    for argv in (
        ["nonsense"],
        ["table", "3"],
        ["ballot", "--n", "2"],  # missing --k
        ["cx", "--n", "3", "--format", "yaml"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_repeat_runs_byte_identical(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify", "prop1", "--max-n", "4", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qballot.cli", "ballot", "--n", "1", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "f(1,1|q) = q\nf(1,1) = 1\n"
