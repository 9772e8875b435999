"""Every module in the package must import cleanly and export what its
``__all__`` promises — guards the corners no other test touches."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro


def _all_modules():
    mods = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mods.append(info.name)
    return mods


@pytest.mark.parametrize("name", _all_modules())
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", _all_modules())
def test_dunder_all_resolves(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_top_level_version():
    assert repro.__version__


def test_every_public_module_has_docstring():
    for name in _all_modules():
        module = importlib.import_module(name)
        if name.endswith("__main__"):
            continue
        assert module.__doc__, f"{name} lacks a module docstring"


def test_api_import_defers_scipy():
    """scipy loads on first analysis use, not on ``import repro.api``."""
    code = (
        "import sys, repro.api; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
