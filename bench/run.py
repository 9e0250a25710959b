#!/usr/bin/env python3
"""xenopower benchmark: time the pilot-to-report pipeline on a workload and
check its results.

    python3 bench/run.py --workload anova-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it starts one fresh interpreter per pass, each running
the whole pipeline at one worker per core, until ``--seconds`` have passed,
and reports the end-to-end metrics. With ``--trace 1`` it runs one pass
with spans around every layer call and reports the per-layer metrics.
``--smoke`` shrinks a run to a few replicates per cell to check the harness.

Every run checks its results first: the one-worker and all-core CSVs must
agree byte for byte, and each cell's power and convergence must lie within
Monte Carlo tolerance of the reference table in reference.json. A failed
check exits 1 with no metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIPELINE = HERE / "pipeline.py"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0
MIN_SETUP_SAMPLES = 5
# Per-cell tolerance: Z_CELL standard errors plus SLACK_REPLICATES replicates,
# so cells near 0% or 100% power are not judged by a vanishing variance.
Z_CELL = 5.0
SLACK_REPLICATES = 6
# Aggregate check over cells the normal approximation suits.
Z_AGGREGATE = 4.75
AGGREGATE_MIN_N = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "time_to_report_s": "s",
    "converged_frac": "fraction",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A correctness check failed; the run reports no metrics."""


class ChildFailed(Exception):
    """A pipeline process exited abnormally or ran out of time."""


def run_child(args, deadline: float):
    """Start one pipeline process; return (start time, its JSON result).

    The child gets its own process group, so on timeout or interrupt the
    whole group (pool workers included) is killed, then reaped.
    """
    cmd = [sys.executable, str(PIPELINE), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"pipeline {args[0]} exited with code {proc.returncode}")
    return t_spawn, json.loads(stdout.strip().splitlines()[-1])


def child_args(mode, w, seed, sim, out, extra=()):
    return [mode, "--workload", w.name, "--grid-seed", str(seed), "--sim", str(sim),
            "--workers", str(os.cpu_count() or 1), "--out", str(out), *extra]


# ----------------------------------------------------------------- checks


def counts(rows, sim):
    """Per-cell (rejections, converged) counts from power/convergence %."""
    out = {}
    for n, m, power, convergence in rows:
        conv = round(convergence * sim / 100.0)
        out[(n, m)] = (round(power * conv / 100.0), conv)
    return out


def _z(x1, n1, x0, n0):
    """Standardised difference of two proportions, pooled variance with
    one pseudo-count per side, so it is finite at 0% and 100%."""
    p1, p0 = x1 / n1, x0 / n0
    pbar = (x1 + x0 + 1.0) / (n1 + n0 + 2.0)
    se = math.sqrt(pbar * (1.0 - pbar) * (1.0 / n1 + 1.0 / n0))
    return p1 - p0, se


def chi2_quantile(k: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square(k) quantile at the
    standard normal quantile z."""
    c = 2.0 / (9.0 * k)
    return k * (1.0 - c + z * math.sqrt(c)) ** 3


def monte_carlo_check(run_counts, sim_total, reference) -> str:
    """Compare pooled counts with the reference table; raise CheckFailed.

    For power (rejections among converged) and convergence (converged among
    simulated), each cell must lie within Z_CELL standard errors plus
    SLACK_REPLICATES / n of the reference, and the squared z-scores of cells
    with 10-90% reference rates must sum below the chi-square quantile.
    """
    ref = {(n, m): (rej, conv) for n, m, rej, conv in reference["cells"]}
    ref_sim = reference["sim"]
    if set(ref) != set(run_counts):
        raise CheckFailed("grid cells differ from the reference table")
    bad, z2, k, worst = [], 0.0, 0, 0.0
    for cell, (rej, conv) in sorted(run_counts.items()):
        rrej, rconv = ref[cell]
        for what, x1, n1, x0, n0 in (("power", rej, conv, rrej, rconv),
                                     ("convergence", conv, sim_total, rconv, ref_sim)):
            diff, se = _z(x1, n1, x0, n0)
            worst = max(worst, abs(diff) / se)
            if abs(diff) > Z_CELL * se + SLACK_REPLICATES / n1:
                bad.append(f"{what} n{cell[0]}m{cell[1]}: {100 * x1 / n1:.1f}% vs "
                           f"reference {100 * x0 / n0:.1f}%")
            if n1 >= AGGREGATE_MIN_N and 0.1 <= x0 / n0 <= 0.9:
                z2 += (diff / se) ** 2
                k += 1
    if bad:
        raise CheckFailed("Monte Carlo tolerance: " + "; ".join(bad))
    if k and z2 > chi2_quantile(k, Z_AGGREGATE):
        raise CheckFailed(f"Monte Carlo aggregate: sum z^2 = {z2:.1f} over {k} cells "
                          f"exceeds {chi2_quantile(k, Z_AGGREGATE):.1f}")
    return f"all cells within tolerance (max |z| {worst:.2f}; sum z^2 {z2:.1f} over {k} cells)"


def determinism_check(result) -> str:
    det = result["determinism"]
    if not det["ok"]:
        raise CheckFailed("determinism: " + det["detail"])
    return det["detail"]


# ------------------------------------------------------------------- runs


def measured_run(w, seed, seconds, sim, smoke, out_root, deadline, report):
    """Passes of the whole pipeline until ``seconds`` of measuring are spent."""
    passes, setups = [], []
    t_start, check_s = time.monotonic(), 0.0
    while not passes or (not smoke and time.monotonic() - t_start - check_s < seconds):
        i = len(passes)
        extra = ("--check-cells",) if i == 0 else ()
        gseed = wl.grid_seed(w.name, seed, i)
        t_spawn, res = run_child(child_args("measure", w, gseed, sim, out_root / f"pass{i}", extra),
                                 deadline)
        res["t_spawn"], res["grid_seed"] = t_spawn, gseed
        check_s += res.get("check_s", 0.0)
        passes.append(res)
        setups.append(res["t_ready"] - t_spawn)
    while not smoke and len(setups) < MIN_SETUP_SAMPLES:
        t_spawn, res = run_child(child_args("setup", w, passes[0]["grid_seed"], sim,
                                            out_root / "setup"), deadline)
        setups.append(res["t_ready"] - t_spawn)

    report("check determinism: " + determinism_check(passes[0]))
    pooled = {}
    for p in passes:
        for cell, (rej, conv) in counts(p["rows"], sim).items():
            r0, c0 = pooled.get(cell, (0, 0))
            pooled[cell] = (r0 + rej, c0 + conv)
    return passes, setups, pooled


def end_to_end(w, sim, passes, setups, converged):
    reps = w.cells * sim
    return {
        "setup_s": statistics.median(setups),
        "replicates_per_s": statistics.median(reps / (p["t_grid"] - p["t_ready"]) for p in passes),
        "time_to_report_s": statistics.median(p["t_report"] - p["t_spawn"] for p in passes),
        "converged_frac": converged / (reps * len(passes)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256() -> str:
    """Digest of every file under src/, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_json(name):
    path = HERE / name
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{wl.SMOKE_SIM} replicates per cell, one pass: checks the harness")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "xenopower" / "__init__.py").is_file():
        print(f"error: no xenopower package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = load_json("reference.json").get(args.workload)
    if reference is None:
        print(f"error: no reference table for {args.workload} in reference.json", file=sys.stderr)
        return 2

    w = wl.WORKLOADS[args.workload]
    sim = wl.SMOKE_SIM if args.smoke else w.sim
    out_root = ROOT / ".bench_out" / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    lines = []
    try:
        if args.trace:
            gseed = wl.grid_seed(w.name, args.seed, 0)
            _, res = run_child(child_args("trace", w, gseed, sim, out_root), deadline)
            res["grid_seed"] = gseed
            lines.append("check determinism: " + determinism_check(res))
            first, passes = res, [res]
            pooled = counts(res["rows"], sim)
        else:
            passes, setups, pooled = measured_run(w, args.seed, args.seconds, sim, args.smoke,
                                                  out_root, deadline, lines.append)
            first = passes[0]
        lines.append("check monte-carlo: "
                     + monte_carlo_check(pooled, sim * len(passes), reference))
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    baseline = None if args.smoke else (
        load_json("baseline.json").get("csv_sha256", {}).get(w.name, {}).get(str(args.seed)))
    stamp = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "git_sha": git_sha(), "src_sha256": src_sha256(), "nproc": os.cpu_count(),
        **first["stamp"],
        "replicates_per_cell": sim, "passes": len(passes),
        "grid_seeds": [p["grid_seed"] for p in passes],
        "csv_sha256": first["csv_sha256"],
        "csv_matches_baseline": None if baseline is None else baseline == first["csv_sha256"],
        "frontier_at_0.8": first["frontier"],
    }
    print("stamp " + json.dumps(stamp))
    for line in lines:
        print(line)

    attempted = w.cells * sim * len(passes)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    else:
        converged = sum(conv for _, conv in pooled.values())
        values = end_to_end(w, sim, passes, setups, converged)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"failed_replicate_frac = {(attempted - converged) / attempted!r} fraction "
              f"({attempted - converged} non-converged of {attempted} replicates)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    # A non-converged fit is a result the program reports, not a failed
    # operation; any pipeline error ends the run above with no metrics.
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
