"""The package namespace: `qballot` exports its documented API and its
submodules, and loads each on first use."""

import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import qballot

SRC = Path(__file__).resolve().parent.parent / "src" / "qballot"
SUBMODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from qballot import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(qballot.__all__)


@pytest.mark.parametrize("name", qballot.__all__)
def test_each_name_is_its_home_module_object(name):
    home = import_module(f"qballot.{qballot._HOMES[name]}")
    obj = getattr(qballot, name)
    assert obj is getattr(home, name)
    if isinstance(obj, (type, types.FunctionType)):
        assert obj.__module__ == home.__name__


def test_submodules_resolve_after_a_bare_import():
    # qballot.qballot loads qballot.ballot first; the attribute `ballot` must
    # still be that submodule, not the function ballot()
    code = (
        "import sys, types\n"
        "import qballot\n"
        "assert qballot.qballot(2, 1) is sys.modules['qballot.ballot'].qballot(2, 1)\n"
        f"for name in {SUBMODULES!r}:\n"
        "    mod = getattr(qballot, name)\n"
        "    assert isinstance(mod, types.ModuleType), name\n"
        "    assert mod is sys.modules['qballot.' + name], name\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qballot.no_such_name
    assert not hasattr(qballot, "tilde_f")  # importable from qballot.ballot only


def test_dir_lists_the_api_and_submodules():
    names = dir(qballot)
    assert set(qballot.__all__) <= set(names)
    assert set(SUBMODULES) <= set(names)
