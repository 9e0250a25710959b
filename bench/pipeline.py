#!/usr/bin/env python3
"""One fresh-interpreter run of the xenopower pipeline for a benchmark workload.

run.py starts this script as a child process; it is not meant to be run by
hand. It takes the path the CLI takes (read_pilot_csv / elicit_* -> PowerJob
-> run_power_grid -> minimal_designs -> write_power_csv / write_power_json /
render_power_plot) and prints one JSON line. Timestamps are
``time.monotonic()``, one clock for every process on Linux, so the parent
can subtract the moment it started this process.

Modes:
  setup    stop where run_power_grid would be called
  measure  the whole pipeline at --workers; with --check-cells, the named
           cells again at one worker, for the determinism check
  trace    per-layer timings: the grid untraced at --workers, at one worker
           untraced and traced, at --workers again, plus fixed probes
"""

from __future__ import annotations

import time

T_IMPORT0 = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import xenopower  # noqa: E402
from xenopower import engine  # noqa: E402
from xenopower import (  # noqa: E402
    DesignGrid,
    PowerJob,
    elicit_anova_from_pilot,
    elicit_frailty_from_medians,
    elicit_frailty_from_pilot,
    frailty_loglik,
    gen_frailty,
    minimal_designs,
    read_pilot_csv,
    render_power_plot,
    replicate_stream,
    run_power_grid,
    validate_grid,
    write_power_csv,
    write_power_json,
)

T_IMPORT1 = time.monotonic()

import workloads as wl  # noqa: E402

# Replicates per named cell when a trace probes the model its workload does
# not use (the anova model of anova-grid, the frailty model of frailty-grid).
PROBE_REPLICATES = {"anova": 64, "frailty": 12}
# Exceptions the engine turns into a non-converged replicate.
FIT_ERRORS = (ValueError, FloatingPointError, np.linalg.LinAlgError)


def pilot_file(kind: str) -> Path:
    return SRC / "xenopower" / "data" / f"pilot_{kind}.csv"


def elicit(w: wl.Workload, pilot):
    if w.model == "anova":
        return elicit_anova_from_pilot(pilot)
    if w.pilot is not None:
        return elicit_frailty_from_pilot(pilot, censor=True, ct=w.censor_time)
    return elicit_frailty_from_medians(**w.medians, censor=True, ct=w.censor_time)


def build_job(w: wl.Workload, seed: int, sim: int, workers: int) -> PowerJob:
    """The CLI's set-up: read the pilot, elicit parameters, build the job."""
    pilot = read_pilot_csv(pilot_file(w.pilot)) if w.pilot is not None else None
    params = elicit(w, pilot)
    grid = validate_grid(
        DesignGrid(n_values=w.n_values, m_values=w.m_values, sim=sim, alpha=wl.ALPHA, seed=seed)
    )
    return PowerJob(grid=grid, model=params, target_power=wl.TARGET_POWER, worker_count=workers)


def write_report(table, out: Path):
    """Frontier plus the three output files, as the CLI writes them."""
    frontier = minimal_designs(table, wl.TARGET_POWER)
    write_power_csv(table, out / "power.csv")
    write_power_json(table, frontier, out / "power.json")
    svg = render_power_plot(table, wl.TARGET_POWER, (0.0, 1.0))
    with open(out / "power.svg", "w", encoding="utf-8") as fh:
        fh.write(svg)
    return frontier


def table_rows(table):
    return [[r.n, r.m, r.power, r.convergence] for r in table.rows]


def csv_bytes(table, path: Path) -> bytes:
    write_power_csv(table, path)
    return path.read_bytes()


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker's.

    Linux reports ru_maxrss in KiB. Pool workers are children of this
    process, so RUSAGE_CHILDREN covers them once the pool has shut down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * worker) / 1024.0


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "xenopower": xenopower.__version__,
    }


def median_s(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# ---------------------------------------------------------------- measure


def check_cells_at_one_worker(job: PowerJob, full_csv: bytes, out: Path) -> dict:
    """Rerun each named cell at worker_count=1; its CSV row must equal the
    full grid's row byte for byte."""
    full_lines = full_csv.decode().splitlines()
    header, by_cell = full_lines[0], {tuple(line.split(",")[:2]): line for line in full_lines[1:]}
    mismatched = []
    for n, m in wl.CHECK_CELLS:
        grid = replace(job.grid, n_values=(n,), m_values=(m,))
        table = run_power_grid(replace(job, grid=grid, worker_count=1))
        head, row = csv_bytes(table, out / f"w1_{wl.cell_name(n, m)}.csv").decode().splitlines()
        if head != header or row != by_cell.get((str(n), str(m))):
            mismatched.append(wl.cell_name(n, m))
    detail = "rows of cells %s at 1 worker equal the %d-worker CSV" % (
        ",".join(wl.cell_name(n, m) for n, m in wl.CHECK_CELLS), job.worker_count)
    if mismatched:
        detail = "cells %s differ between 1 and %d workers" % (",".join(mismatched), job.worker_count)
    return {"ok": not mismatched, "detail": detail}


def measure(args, w: wl.Workload) -> dict:
    job = build_job(w, args.grid_seed, args.sim, args.workers)
    t_ready = time.monotonic()
    if args.mode == "setup":
        return {"t_import": [T_IMPORT0, T_IMPORT1], "t_ready": t_ready}
    table = run_power_grid(job)
    t_grid = time.monotonic()
    frontier = write_report(table, args.out)
    t_report = time.monotonic()
    rss = peak_rss_mb(args.workers)
    full_csv = (args.out / "power.csv").read_bytes()
    result = {
        "t_import": [T_IMPORT0, T_IMPORT1],
        "t_ready": t_ready,
        "t_grid": t_grid,
        "t_report": t_report,
        "peak_rss_mb": rss,
        "rows": table_rows(table),
        "csv_sha256": hashlib.sha256(full_csv).hexdigest(),
        "frontier": frontier,
        "stamp": stamp(),
    }
    if args.check_cells:
        t0 = time.monotonic()
        result["determinism"] = check_cells_at_one_worker(job, full_csv, args.out)
        result["check_s"] = time.monotonic() - t0
    return result


# ------------------------------------------------------------------ trace


class Tracer:
    """In-memory spans around calls into the public layer functions.

    A span is (name, phase, cell, start_ns, end_ns, outcome); its parent is
    the grid run or the probe named by ``phase``. The cell and outcome are
    read after the span ends, so they cost the span nothing; that
    bookkeeping time is summed in ``bookkeeping_ns`` instead.
    """

    def __init__(self):
        self.spans = []
        self.phase = "grid"
        self.bookkeeping_ns = 0

    def wrap(self, name, fn, cell_of, outcome_of):
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append((name, self.phase, cell_of(args), t0, time.perf_counter_ns(), "raised"))
                raise
            t1 = time.perf_counter_ns()
            spans.append((name, self.phase, cell_of(args), t0, t1, outcome_of(out)))
            self.bookkeeping_ns += time.perf_counter_ns() - t1
            return out

        return traced

    def select(self, name, phase=None, cell=None):
        return [
            s for s in self.spans
            if s[0] == name and (phase is None or s[1] == phase) and (cell is None or s[2] == cell)
        ]


def _data_cell(args):
    data = args[0]
    n = int(data.line_index.max())
    return (n, data.y.size // (2 * n))


def _fit_outcome(fit):
    if not fit.converged:
        return "failed"
    return "boundary" if fit.tau2_hat == 0 else "ok"


def _gen_outcome(data):
    events = [int(data.status[data.tx == arm].sum()) for arm in (0, 1)]
    return (float(data.censoring_fraction), min(events) == 0)


# (engine global, layer span name, cell_of, outcome_of)
_TRACED = (
    ("replicate_stream", "datagen.stream", lambda a: (a[1], a[2]), lambda out: None),
    ("gen_anova", "datagen.gen", lambda a: (a[0], a[1]), lambda out: None),
    ("gen_frailty", "datagen.gen", lambda a: (a[0], a[1]), _gen_outcome),
    ("fit_lmm", "lmm.fit", _data_cell, _fit_outcome),
    ("wald_test_lmm", "lmm.test", lambda a: None, lambda out: None),
    ("fit_frailty", "frailty.fit", _data_cell, _fit_outcome),
    ("wald_test_frailty", "frailty.test", lambda a: None, lambda out: None),
)


def traced_layers(tracer: Tracer) -> dict:
    return {
        attr: tracer.wrap(name, getattr(engine, attr), cell_of, outcome_of)
        for attr, name, cell_of, outcome_of in _TRACED
    }


@contextmanager
def traced_engine(layers: dict):
    """Swap the engine's layer functions for their traced wrappers."""
    saved = {attr: getattr(engine, attr) for attr in layers}
    for attr, fn in layers.items():
        setattr(engine, attr, fn)
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(engine, attr, fn)


def one_worker_runs(job: PowerJob, layers: dict, template):
    """The grid at one worker, untraced and traced, one cell at a time.

    The untraced and traced runs of each cell alternate, swapping order
    every cell, so both see the same host speed: on a shared host it drifts
    by more than the tracing overhead being measured. Returns the untraced
    and traced wall times and tables.
    """
    plain_s = traced_s = 0.0
    plain_rows, traced_rows = [], []
    cells = [(n, m) for n in job.grid.n_values for m in job.grid.m_values]
    for i, (n, m) in enumerate(cells):
        piece = replace(job, grid=replace(job.grid, n_values=(n,), m_values=(m,)), worker_count=1)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with traced_engine(layers if traced else {}):
                t0 = time.perf_counter()
                table = run_power_grid(piece)
                elapsed = time.perf_counter() - t0
            if traced:
                traced_s += elapsed
                traced_rows += table.rows
            else:
                plain_s += elapsed
                plain_rows += table.rows
    return (plain_s, traced_s, replace(template, rows=tuple(plain_rows)),
            replace(template, rows=tuple(traced_rows)))


def probe_model(layers: dict, model: str, params, seed: int) -> None:
    """Simulate, fit and test the named cells the way the engine does, for
    the model the workload's grid does not use."""
    gen = layers["gen_anova" if model == "anova" else "gen_frailty"]
    fit = layers["fit_lmm" if model == "anova" else "fit_frailty"]
    test = layers["wald_test_lmm" if model == "anova" else "wald_test_frailty"]
    for n, m in wl.CHECK_CELLS:
        for r in range(PROBE_REPLICATES[model]):
            data = gen(n, m, params, layers["replicate_stream"](seed, n, m, r))
            try:
                result = fit(data)
            except FIT_ERRORS:
                continue
            if result.converged:
                test(result, wl.ALPHA)


def companion_params(model: str):
    """Parameters of the other workload family, for probing its fitter."""
    companion = wl.WORKLOADS["anova-grid" if model == "anova" else "frailty-grid"]
    return build_job(companion, 0, 1, 1).model


def _us(spans) -> float:
    return statistics.median((s[4] - s[3]) / 1e3 for s in spans)


def _total_s(spans) -> float:
    return sum(s[4] - s[3] for s in spans) / 1e9


def layer_metrics(tracer: Tracer, wall_traced: float, grid_bookkeeping: float, reps: int,
                  w1_s: float) -> dict:
    sel = tracer.select
    out = {
        "datagen.stream_us": (_us(sel("datagen.stream", "grid")), "us"),
        "datagen.gen_us": (_us(sel("datagen.gen", "grid")), "us"),
    }
    # gen_frailty spans carry (censoring fraction, an arm without events)
    frailty_gens = [s[5] for s in sel("datagen.gen") if s[5] is not None]
    grid_censoring = [s[5][0] for s in sel("datagen.gen", "grid") if s[5] is not None]
    out["datagen.censoring_frac"] = (
        statistics.fmean(grid_censoring) if grid_censoring else 0.0, "fraction")
    for layer in ("lmm", "frailty"):
        fits = sel(f"{layer}.fit")
        for n, m in wl.CHECK_CELLS:
            out[f"{layer}.fit_us.{wl.cell_name(n, m)}"] = (_us(sel(f"{layer}.fit", cell=(n, m))), "us")
        out[f"{layer}.test_us"] = (_us(sel(f"{layer}.test")), "us")
        converged = [s for s in fits if s[5] in ("ok", "boundary")]
        out[f"{layer}.boundary_frac"] = (
            sum(s[5] == "boundary" for s in converged) / len(converged), "fraction")
        out[f"{layer}.failed_frac"] = (
            sum(s[5] in ("failed", "raised") for s in fits) / len(fits), "fraction")
    out["frailty.no_event_arm_frac"] = (
        sum(g[1] for g in frailty_gens) / len(frailty_gens), "fraction")

    grid_layers = {
        layer: _total_s([s for s in tracer.spans if s[1] == "grid" and s[0].startswith(layer + ".")])
        for layer in ("datagen", "lmm", "frailty")
    }
    for layer, total in grid_layers.items():
        out[f"{layer}.share"] = (total / wall_traced, "fraction")
    # All terms come from the traced run: differencing against the untraced
    # run would mix in the host's run-to-run speed changes.
    out["engine.self_us_per_replicate"] = (
        (wall_traced - sum(grid_layers.values()) - grid_bookkeeping) / reps * 1e6, "us")
    out["trace.overhead_frac"] = (wall_traced / w1_s - 1.0, "fraction")
    return out


def trace(args, w: wl.Workload) -> dict:
    job = build_job(w, args.grid_seed, args.sim, args.workers)
    out = args.out
    reps = w.cells * args.sim
    metrics = {"xenopower.import_s": (T_IMPORT1 - T_IMPORT0, "s")}

    # The all-core grid runs before and after the one-worker runs; the mean
    # of its two walls cancels a steady drift in host speed.
    t0 = time.perf_counter()
    table = run_power_grid(job)
    wall = time.perf_counter() - t0
    tracer = Tracer()
    layers = traced_layers(tracer)
    w1_s, wall_traced, table_w1, table_traced = one_worker_runs(job, layers, table)
    grid_bookkeeping = tracer.bookkeeping_ns / 1e9
    t0 = time.perf_counter()
    table_again = run_power_grid(job)
    wall = (wall + time.perf_counter() - t0) / 2.0
    other = "frailty" if w.model == "anova" else "anova"
    other_params = companion_params(other)
    tracer.phase = "probe"
    probe_model(layers, other, other_params, args.grid_seed)

    csvs = [csv_bytes(t, out / f"{tag}.csv") for t, tag in
            ((table, "parallel"), (table_again, "parallel_again"), (table_w1, "w1"),
             (table_traced, "w1_traced"))]
    same = all(c == csvs[0] for c in csvs)
    determinism = {
        "ok": same,
        "detail": "full-grid CSVs at %d workers (twice) and at 1 worker, untraced and traced, are %s"
        % (args.workers, "byte-identical" if same else "DIFFERENT"),
    }

    metrics.update(layer_metrics(tracer, wall_traced, grid_bookkeeping, reps, w1_s))
    metrics["engine.w1_s"] = (w1_s, "s")
    metrics["engine.parallel_efficiency"] = (w1_s / (args.workers * wall), "fraction")
    one = replace(job.grid, n_values=(3,), m_values=(2,), sim=1)
    metrics["engine.pool_fixed_s"] = (median_s(lambda: run_power_grid(replace(job, grid=one)), 5), "s")

    frontier = minimal_designs(table, wl.TARGET_POWER)
    metrics["engine.minimal_designs_us"] = (
        median_s(lambda: minimal_designs(table, wl.TARGET_POWER), 200) * 1e6, "us")
    metrics["io.write_csv_us"] = (median_s(lambda: write_power_csv(table, out / "power.csv"), 30) * 1e6, "us")
    metrics["io.write_json_us"] = (
        median_s(lambda: write_power_json(table, frontier, out / "power.json"), 30) * 1e6, "us")
    metrics["plot.render_ms"] = (
        median_s(lambda: render_power_plot(table, wl.TARGET_POWER, (0.0, 1.0)), 20) * 1e3, "ms")

    # set-up layers: the workload's own pilot, or the censored one as a probe
    pilot_path = pilot_file(w.pilot or "censored")
    metrics["io.read_pilot_us"] = (median_s(lambda: read_pilot_csv(pilot_path), 50) * 1e6, "us")
    pilot = read_pilot_csv(pilot_path) if w.pilot is not None else None
    metrics["elicit.pilot_fit_ms"] = (median_s(lambda: elicit(w, pilot), 5) * 1e3, "ms")

    # one likelihood evaluation at the generating parameters of a frailty model
    fparams = job.model if w.model == "frailty" else other_params
    data = gen_frailty(6, 5, fparams, replicate_stream(args.grid_seed, 6, 5, 0))
    theta = (fparams.lam, fparams.nu, fparams.beta, fparams.tau2)
    loglik_us = median_s(lambda: frailty_loglik(theta, data), 300) * 1e6
    metrics["frailty.loglik_us"] = (loglik_us, "us")
    metrics["frailty.fit_per_loglik"] = (metrics["frailty.fit_us.n6m5"][0] / loglik_us, "ratio")

    return {
        "metrics": {k: [float(v), unit] for k, (v, unit) in sorted(metrics.items())},
        "rows": table_rows(table),
        "csv_sha256": hashlib.sha256(csvs[0]).hexdigest(),
        "frontier": frontier,
        "determinism": determinism,
        "stamp": stamp(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--grid-seed", type=int, required=True)
    parser.add_argument("--sim", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--check-cells", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    w = wl.WORKLOADS[args.workload]
    result = trace(args, w) if args.mode == "trace" else measure(args, w)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
