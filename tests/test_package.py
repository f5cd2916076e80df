"""The package root re-exports nothing and imports no submodule."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evpolicy

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(statement: str) -> set[str]:
    """Names in sys.modules after ``statement`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\n"
         "print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.split())


def test_pydriver_imports_no_other_evpolicy_module():
    loaded = modules_after("import evpolicy.pydriver")
    assert sorted(m for m in loaded if m.startswith("evpolicy")) == [
        "evpolicy", "evpolicy.pydriver"]


def test_pydriver_starts_without_inspect():
    # -I -S: no site-packages, .pth files or PYTHON* variables, so nothing
    # but the driver itself can import inspect; -B: no bytecode written
    # into the source tree.
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
         "import evpolicy.pydriver\nprint('inspect' in sys.modules)"],
        capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "False\n"


def test_cli_imports_no_http_client():
    loaded = modules_after("import evpolicy.cli")
    assert "evpolicy.cli" in loaded
    assert loaded.isdisjoint({"requests", "urllib.request", "http.client"})


def test_cli_leaves_the_evolve_modules_to_the_commands_that_use_them():
    # simulate, compare and plot-data need none of these.
    loaded = modules_after("import evpolicy.cli")
    assert loaded.isdisjoint({"evpolicy.evolve", "evpolicy.ledgers",
                              "evpolicy.rules"})


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        evpolicy.nope  # noqa: B018
    assert not hasattr(evpolicy, "nope")


def test_submodules_still_import_from_the_root():
    from evpolicy import pydriver
    assert pydriver is importlib.import_module("evpolicy.pydriver")
    assert evpolicy.__version__ == "0.1.0"
