"""What a cold CLI process loads before it computes anything.

Every op runs in a fresh interpreter, so whatever `import qballot.cli`
loads, every op pays for.  The CLI loads no `dataclasses` (which brings
`inspect` with it), and loads `json` and `csv` only where an op's output or
its --cache file needs them.  Of the package, a bare `import qballot` loads
no module, and the CLI loads `analysis`, `csequence` and `qcore` only for the
commands that run them.  The ops that do need them are run cold here too,
and the conjecture sweep, split over forked children, loads no process-pool
or pickling module.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from qballot.cli import main

DEFERRED = {"dataclasses", "inspect", "json", "csv"}

# Modules that `table`, `ballot` and `catalan` never run.
HEAVY = {"qballot.analysis", "qballot.csequence", "qballot.qcore"}


def _run(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60
    )


def _loaded(code: str) -> set[str]:
    proc = _run("-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _cli(*argv):
    return _run("-m", "qballot.cli", *argv)


def test_cli_start_up_loads_no_deferred_module():
    # measured against a bare interpreter: what site preloads is not ours
    added = _loaded("import qballot.cli; qballot.cli.build_parser()") - _loaded("pass")
    assert "qballot.cli" in added
    assert added & DEFERRED == set()


def test_bare_package_import_loads_no_submodule():
    added = _loaded("import qballot") - _loaded("pass")
    assert "qballot" in added
    assert {m for m in added if m.startswith("qballot.")} == set()


def test_cli_start_up_loads_no_heavy_module():
    added = _loaded("import qballot.cli; qballot.cli.build_parser()") - _loaded("pass")
    assert "qballot.ballot" in added
    assert added & HEAVY == set()


def _imported(stderr: str) -> set[str]:
    # -X importtime writes "import time: self | cumulative | name" lines
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["ballot", "--n", "6", "--k", "4"],
        ["table", "2", "--max-n", "4"],
        ["catalan", "--max-n", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_ballot_ops_import_no_heavy_module(argv):
    proc = _run("-X", "importtime", "-m", "qballot.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    names = _imported(proc.stderr)
    assert "qballot.ballot" in names
    assert names & HEAVY == set()


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["cx", "--n", "3"],
        ["verify", "thm1", "--max-n", "3"],
        ["conjecture", "--max-n", "5"],
        ["polytope", "--n", "4", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_ops_that_load_modules_on_demand_run_cold(argv):
    proc = _cli(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
    assert _in_process(argv) == (0, proc.stdout)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_formats_in_a_cold_process(fmt):
    proc = _cli("verify", "prop1", "--max-n", "3", "--format", fmt)
    assert (proc.returncode, proc.stderr) == (0, "")
    if fmt == "json":
        assert json.loads(proc.stdout)["passed"] is True
    else:
        assert proc.stdout.splitlines()[0] == "id,n,k,pass,detail"


def test_cache_build_then_lookup_in_cold_processes(tmp_path):
    cache = tmp_path / "table.json"
    build = _cli("ballot", "--n", "6", "--k", "4", "--cache", str(cache))
    assert (build.returncode, build.stderr) == (0, "")
    saved = cache.read_bytes()
    assert json.loads(saved)["schema"] == "qballot-table-v2"
    lookup = _cli("ballot", "--n", "5", "--k", "3", "--cache", str(cache))
    assert (lookup.returncode, lookup.stderr) == (0, "")
    assert lookup.stdout == _cli("ballot", "--n", "5", "--k", "3").stdout
    assert cache.read_bytes() == saved  # nothing new to store


def test_conjecture_sweep_imports_no_process_pool():
    # the split sweep forks with os and sends rows with marshal
    proc = _run("-X", "importtime", "-m", "qballot.cli", "conjecture", "--max-n", "5")
    assert proc.returncode == 0, proc.stderr
    names = _imported(proc.stderr)
    assert "qballot.analysis" in names
    top = {name.split(".")[0] for name in names}
    assert top & {"multiprocessing", "concurrent", "pickle", "subprocess"} == set()
