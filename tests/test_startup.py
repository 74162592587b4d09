"""What a cold CLI process loads before it computes anything.

Every op runs in a fresh interpreter, so whatever `import qballot.cli`
loads, every op pays for.  The CLI loads no `dataclasses` (which brings
`inspect` with it), and loads `json` and `csv` only where an op's output or
its --cache file needs them.  The ops that do need them are run cold here too.
"""

import json
import subprocess
import sys

import pytest

DEFERRED = {"dataclasses", "inspect", "json", "csv"}


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
