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


def package_env(**extra):
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xenopower.__file__)))
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def assert_import_leaves_unloaded(module):
    code = f"import sys, xenopower; assert {module!r} not in sys.modules, '{module} imported'"
    subprocess.run([sys.executable, "-c", code], env=package_env(), check=True)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of start-up in every worker
    assert_import_leaves_unloaded("scipy.stats")


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about a quarter of a second; only an unbalanced
    # LMM fit imports it
    assert_import_leaves_unloaded("scipy.optimize")


def imports_of(args, tmp_path):
    """Names of the modules a ``python`` run with these arguments imports,
    once per import, in its own process and in every worker it starts,
    which inherit the import-time report through the environment."""
    run = subprocess.run([sys.executable, *args], env=package_env(PYTHONPROFILEIMPORTTIME="1"),
                         cwd=tmp_path, capture_output=True, text=True, check=True, timeout=300)
    return [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


# scipy.special is about half of a fresh interpreter's start-up; only the
# frailty model uses it
ANOVA_RUN = """
from xenopower import DesignGrid, PowerJob, elicit_anova_from_pilot, run_power_grid
from xenopower.datasets import pilot_uncensored

params = elicit_anova_from_pilot(pilot_uncensored())
grid = DesignGrid(n_values=(2, 3), m_values=(1, 2), sim=600, alpha=0.05, seed=7)
for workers in (1, 2):
    run_power_grid(PowerJob(grid=grid, model=params, worker_count=workers))
"""


def test_anova_pilot_and_grids_leave_scipy_special_unloaded(tmp_path):
    imported = imports_of(["-c", ANOVA_RUN], tmp_path)
    assert "xenopower.engine" in imported
    assert not any(name.startswith("scipy.special") for name in imported)


def test_anova_cli_leaves_scipy_special_unloaded(tmp_path):
    imported = imports_of(["-m", "xenopower.cli", "pow-anova", "--ctl-med", "2.4",
                           "--tx-med", "7.2", "--n", "2:3", "--m", "1:2", "--sim", "600",
                           "--threads", "2", "--out-csv", "power.csv"], tmp_path)
    assert (tmp_path / "power.csv").exists()
    assert not any(name.startswith("scipy.special") for name in imported)


def test_anova_chunk_in_a_spawned_worker_leaves_scipy_special_unloaded(tmp_path):
    code = """
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from xenopower.engine import _run_chunk
from xenopower.types import AnovaParams

task = (AnovaParams(beta0=0.0653, beta=0.7299, tau2=0.0332, sigma2=0.386), 3, 2, 0.05, 7, 0, 512)
with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
    rejected, converged, _ = pool.submit(_run_chunk, task).result()
assert converged.all() and 0 < rejected.sum() < 512
"""
    imported = imports_of(["-c", code], tmp_path)
    # the spawned worker imports the package afresh, and reports it
    assert imported.count("xenopower") == 2
    assert not any(name.startswith("scipy.special") for name in imported)


def test_building_a_frailty_job_loads_scipy_special(tmp_path):
    code = """
import sys
from xenopower import DesignGrid, FrailtyParams, PowerJob

assert "scipy.special" not in sys.modules
grid = DesignGrid(n_values=(3,), m_values=(2,), sim=32, alpha=0.05, seed=7)
PowerJob(grid=grid, model=FrailtyParams(lam=0.29, nu=1.0, beta=-1.1, tau2=0.1))
assert "scipy.special" in sys.modules
"""
    assert "scipy.special" in imports_of(["-c", code], tmp_path)
