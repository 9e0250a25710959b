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
    # scipy.optimize costs about a quarter of a second
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


def scipy_modules(imported):
    return [name for name in imported if name == "scipy" or name.startswith("scipy.")]


# no library path imports scipy: the frailty fit's Wright omega and the
# unbalanced REML search are numpy and standard-library code
FRAILTY_RUN = """
from xenopower import DesignGrid, PowerJob, elicit_frailty_from_pilot, run_power_grid
from xenopower.datasets import pilot_censored

params = elicit_frailty_from_pilot(pilot_censored())
grid = DesignGrid(n_values=(3, 4), m_values=(2,), sim=64, alpha=0.05, seed=7)
for workers in (1, 2):
    run_power_grid(PowerJob(grid=grid, model=params, worker_count=workers))
"""


def test_censored_pilot_and_frailty_grids_import_no_scipy(tmp_path):
    imported = imports_of(["-c", FRAILTY_RUN], tmp_path)
    assert "xenopower.frailty" in imported and "xenopower.engine" in imported
    assert scipy_modules(imported) == []


SPAWNED_CHUNK = """
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from xenopower.engine import _run_chunk
from xenopower.types import FrailtyParams

model = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1, censor=True, ct=12.0)
with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
    rejected, converged, _ = pool.submit(_run_chunk, (model, 3, 2, 0.05, 7, 0, 64)).result()
assert converged.mean() > 0.9 and 0 < rejected.sum() < 64
"""


def test_frailty_chunk_in_a_spawned_worker_imports_no_scipy(tmp_path):
    imported = imports_of(["-c", SPAWNED_CHUNK], tmp_path)
    assert imported.count("xenopower") == 2
    assert scipy_modules(imported) == []


def test_frailty_data_cli_imports_no_scipy(tmp_path):
    from xenopower.datasets import pilot_path

    imported = imports_of(["-m", "xenopower.cli", "pow-frailty-data", "--data",
                           str(pilot_path("censored")), "--n", "3:4", "--m", "2:3", "--sim", "20",
                           "--censor-time", "8", "--threads", "2", "--out-csv", "power.csv"],
                          tmp_path)
    assert (tmp_path / "power.csv").exists()
    assert scipy_modules(imported) == []


def test_unbalanced_pilot_fit_imports_no_scipy(tmp_path):
    code = """
from xenopower import PilotDataset, fit_lmm
from xenopower.datasets import pilot_uncensored

pilot = pilot_uncensored()
assert fit_lmm(PilotDataset(rows=pilot.rows[1:])).converged
"""
    imported = imports_of(["-c", code], tmp_path)
    assert "xenopower.lmm" in imported
    assert scipy_modules(imported) == []


@pytest.mark.parametrize("demo", ["01_pilot_to_power_lognormal.py",
                                  "02_pilot_to_power_censored.py"])
def test_demo_runs_where_scipy_cannot_be_imported(demo, tmp_path):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", demo)
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            f"runpy.run_path({path!r}, run_name='__main__')")
    subprocess.run([sys.executable, "-c", code], env=package_env(), cwd=tmp_path, check=True,
                   capture_output=True, timeout=300)
