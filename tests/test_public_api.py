"""Every exported name must resolve, so a stale entry fails fast."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import xenopower

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(xenopower.__path__) if not info.name.startswith("_")
)


def test_package_exports_resolve():
    missing = [name for name in xenopower.__all__ if not hasattr(xenopower, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"xenopower.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def assert_import_leaves_unloaded(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(xenopower.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, xenopower; assert {module!r} not in sys.modules, '{module} imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of start-up in every worker
    assert_import_leaves_unloaded("scipy.stats")


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about a quarter of a second; only an unbalanced
    # LMM fit imports it
    assert_import_leaves_unloaded("scipy.optimize")
