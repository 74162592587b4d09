"""What a cold CLI process loads before it computes anything.

Every op runs in a fresh interpreter, so whatever `import qballot.cli`
loads, every op pays for.  The CLI loads no `dataclasses` (which brings
`inspect` with it), and loads `json` and `csv` only where an op's output or
the --cache file of `ballot` (the one command that takes it) needs them.  Of the package, a bare `import qballot` loads
no module, and the CLI loads each module only for the commands that run
it: the q-ballot table `ballot` for `table`, `ballot` and `catalan`, and
`analysis`, `csequence` and `qcore` for the commands that run them.  A cold
`conjecture` compiles the leaf `sweep`, with the `qcyclo` leaf under it,
and none of `analysis`, `csequence`, `ballot`, `qcore` or `qlaurent`; a
cold `polytope` and `verify polytope` compile `analysis` with `sweep`,
`qcyclo` and `qlaurent`, and none of `ballot`, `csequence` or `qcore`,
which only the other suites import.  Of the arithmetic, the CLI and the ballot ops load the ring module `qring` alone,
not `qlaurent` with its gcd and fraction field, and
`from qballot import QLaurent` loads only the ring.  Coefficients are
ints, so the ballot ops and the conjecture sweep load no `fractions` (nor
`decimal` and `numbers`, which it brings).  The ops that do need them are
run cold here too, and the conjecture sweep, split over forked children,
loads no process-pool or pickling module.  A cold process enters through
`run()`, which freezes the collector after `main()` so that interpreter
finalization has nothing to scan; in-process callers of `main()` keep
theirs.  A cold `conjecture` or `polytope` fills no ballot table, and a
cold run that runs out of memory exits 4 with one line on stderr.
"""

import ast
import contextlib
import gc
import io
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qballot.cli as cli
from qballot.cli import main

ROOT = Path(__file__).resolve().parent.parent

DEFERRED = {"dataclasses", "inspect", "json", "csv"}

# Modules that `table`, `ballot` and `catalan` never run.
HEAVY = {"qballot.analysis", "qballot.csequence", "qballot.qcore"}

# `fractions` and what it loads; only the polytope slopes need a Fraction.
RATIONAL = {"fractions", "decimal", "numbers"}


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
    assert "qballot.report" in added
    assert added & HEAVY == set()
    # only the commands that read the q-ballot table import it
    assert "qballot.ballot" not in added


def test_cli_start_up_loads_the_ring_but_not_the_fraction_field():
    added = _loaded("import qballot.cli; qballot.cli.build_parser()") - _loaded("pass")
    assert "qballot.qring" in added
    assert "qballot.qlaurent" not in added


def test_package_ring_names_load_only_the_ring():
    added = _loaded("from qballot import QLaurent") - _loaded("pass")
    assert {m for m in added if m.startswith("qballot.")} == {"qballot.qring"}


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
    assert names & RATIONAL == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["ballot", "--n", "6", "--k", "4", "--format", "json"],
        ["table", "2", "--max-n", "4", "--format", "csv"],
        ["catalan", "--max-n", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_ballot_ops_compile_only_the_ring(argv):
    # the gcd, exact division and QRatFunc live in `qlaurent`, which these
    # ops never run
    proc = _run("-X", "importtime", "-m", "qballot.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    names = _imported(proc.stderr)
    assert "qballot.qring" in names
    assert "qballot.qlaurent" not in names


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
    # the split sweep forks with os and sends rows with marshal; its columns
    # and flags live in the leaf `sweep`, so it compiles no ballot table, no
    # other C_n construction and no suite
    proc = _run("-X", "importtime", "-m", "qballot.cli", "conjecture", "--max-n", "5")
    assert proc.returncode == 0, proc.stderr
    names = _imported(proc.stderr)
    assert "qballot.sweep" in names
    assert names & {"qballot.analysis", "qballot.csequence", "qballot.ballot"} == set()
    top = {name.split(".")[0] for name in names}
    assert top & {"multiprocessing", "concurrent", "pickle", "subprocess"} == set()
    assert names & RATIONAL == set()


def test_conjecture_compiles_neither_qcore_nor_qlaurent():
    # the sweep runs the Newton-Horner core and the [d]_q! sieve of the leaf
    # `qcyclo`, never a polynomial in x or a reduced fraction
    proc = _run("-X", "importtime", "-m", "qballot.cli", "conjecture", "--max-n", "5")
    assert proc.returncode == 0, proc.stderr
    names = _imported(proc.stderr)
    assert {"qballot.sweep", "qballot.qcyclo"} <= names
    assert names & {"qballot.qcore", "qballot.qlaurent"} == set()


@pytest.mark.parametrize(
    "argv",
    [["polytope", "--n", "12", "--format", "svg"], ["verify", "polytope", "--max-n", "6"]],
    ids=["polytope", "verify-polytope"],
)
def test_polytope_compiles_no_table_construction_or_x_polynomial(argv):
    # `analysis` imports the ballot table, the C_n constructions and `qcore`
    # inside the suites that read them, and the hull reads none of them
    proc = _run("-X", "importtime", "-m", "qballot.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    names = _imported(proc.stderr)
    assert {"qballot.analysis", "qballot.sweep", "qballot.qcyclo"} <= names
    assert names & {"qballot.ballot", "qballot.csequence", "qballot.qcore"} == set()


def test_polytope_loads_fractions_for_its_slopes():
    # the one op that returns Fractions: the RATIONAL checks above can see them
    proc = _run("-X", "importtime", "-m", "qballot.cli", "polytope", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    assert RATIONAL <= _imported(proc.stderr)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ballot", "--n", "6", "--k", "4"], 0),
        (["ballot", "--n", "-1", "--k", "0"], 2),  # main() returns 2
        (["ballot", "--n", "x", "--k", "0"], 2),  # argparse exits 2
    ],
    ids=["ok", "bad-value", "argparse"],
)
def test_cold_run_keeps_output_and_exit_code(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "qballot.cli", *argv], capture_output=True, timeout=60
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
    assert got == proc.returncode == code
    assert proc.stdout == out.getvalue().encode()
    assert proc.stderr == err.getvalue().encode()


def test_module_run_freezes_the_collector_before_exit():
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['qballot', 'ballot', '--n', '1', '--k', '1']\n"
        "runpy.run_module('qballot.cli', run_name='__main__')\n"
    )
    proc = _run("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "f(1,1|q) = q\nf(1,1) = 1\nfrozen True\n"


def test_in_process_main_leaves_the_collector_alone():
    assert _in_process(["conjecture", "--max-n", "4"])[0] == 0
    assert gc.get_freeze_count() == 0


def _main_block_callee() -> str:
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (stmt,) = block.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    return stmt.value.func.id


def test_installed_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["qballot"]
    module, name = target.split(":")
    entry = getattr(import_module(module), name)
    assert entry is getattr(cli, _main_block_callee())
    assert entry is not main  # main() stays free of the exit-time freeze


@pytest.mark.parametrize(
    "argv",
    [["conjecture", "--max-n", "12"], ["polytope", "--n", "12"]],
    ids=lambda argv: argv[0],
)
def test_sweep_and_polytope_fill_no_ballot_table(argv):
    # One CPU, so the sweep runs every n in this process.
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from qballot.ballot import TABLE\n"
        "from qballot.cli import main\n"
        f"code = main({argv!r})\n"
        "print(len(TABLE.known()), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = _run("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "0\n")
    assert proc.stdout


def test_out_of_memory_exits_4_with_one_line():
    resource = pytest.importorskip("resource")

    def limit():  # runs in the child only, never in this process
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "qballot.cli", "ballot", "--n", "3000", "--k", "1500"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.splitlines() == ["qballot: out of memory; try a smaller n"]
