"""Smoke test of the benchmark harness: a few replicates per cell, no timing
assertions.

    python3 -m pytest -q bench/test_smoke.py

Kept out of the package's test suite (pyproject's testpaths is ``tests``):
it checks that every workload runs, prints the metrics BENCHMARK.json
names, and that the correctness checks reject wrong results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    ref = json.loads((HERE / "reference.json").read_text())
    for w in wl.WORKLOADS.values():
        cells = {(n, m) for n, m, _, _ in ref[w.name]["cells"]}
        assert cells == {(n, m) for n in w.n_values for m in w.m_values}
        assert set(wl.CHECK_CELLS) <= cells


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == wl.WORKLOADS[workload].cells * wl.SMOKE_SIM
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert any(line.startswith("check determinism: ") for line in lines)
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    for key in ("git_sha", "nproc", "python", "numpy", "scipy", "seed", "replicates_per_cell"):
        assert key in stamp


def _reference_counts(workload):
    ref = json.loads((HERE / "reference.json").read_text())[workload]
    return ref, {(n, m): (rej, conv) for n, m, rej, conv in ref["cells"]}


def test_monte_carlo_check_accepts_reference_and_rejects_shift():
    ref, cells = _reference_counts("anova-grid")
    assert "within tolerance" in run.monte_carlo_check(cells, ref["sim"], ref)

    # one cell's power moved by 20 points, far outside its tolerance
    shifted = dict(cells)
    rej, conv = shifted[(6, 5)]
    shifted[(6, 5)] = (max(rej - conv // 5, 0), conv)
    with pytest.raises(run.CheckFailed, match="power n6m5"):
        run.monte_carlo_check(shifted, ref["sim"], ref)

    # every mid-range cell moved by about 2.5 standard errors: no single
    # cell fails, the aggregate does
    biased = {}
    for cell, (rej, conv) in cells.items():
        p = rej / conv
        step = round(2.5 * (p * (1 - p) * 2 / conv) ** 0.5 * conv) if 0.1 <= p <= 0.9 else 0
        biased[cell] = (rej - step, conv)
    with pytest.raises(run.CheckFailed, match="aggregate"):
        run.monte_carlo_check(biased, ref["sim"], ref)


def test_monte_carlo_check_rejects_lost_convergence():
    ref, cells = _reference_counts("frailty-pilot")
    low = {cell: (rej * 3 // 4, conv * 3 // 4) for cell, (rej, conv) in cells.items()}
    with pytest.raises(run.CheckFailed, match="convergence"):
        run.monte_carlo_check(low, ref["sim"], ref)


def test_determinism_check_fails_on_mismatch():
    with pytest.raises(run.CheckFailed, match="determinism"):
        run.determinism_check({"determinism": {"ok": False, "detail": "cells n3m2 differ"}})


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "anova-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
