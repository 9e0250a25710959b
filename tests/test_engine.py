from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Executor, Future
from dataclasses import replace

import numpy as np
import pytest

from xenopower import datagen, engine, frailty
from xenopower.datagen import SimulatedDataset, gen_anova, gen_frailty, replicate_stream
from xenopower.datasets import pilot_censored
from xenopower.elicit import elicit_frailty_from_pilot
from xenopower.engine import EngineError, PowerJob, minimal_designs, run_power_grid
from xenopower.frailty import fit_frailty, wald_test_frailty
from xenopower.io import power_csv_text, power_json_dict
from xenopower.lmm import fit_lmm, wald_test_lmm
from xenopower.types import (
    AnovaParams,
    DesignGrid,
    FrailtyParams,
    PowerRow,
    PowerTable,
    ValidationError,
)

ANOVA_PILOT = AnovaParams(beta0=0.0653, beta=0.7299, tau2=0.0332, sigma2=0.386)
CENSORED_FRAILTY = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                                 censor=True, ct=12.0)

# power-by-cell table from the pilot-driven log-normal run (sim=500),
# used as a fixed input for frontier logic
PILOT_POWER_TABLE = {
    3: [49.6, 67.0, 77.4, 87.2, 94.2, 96.0, 98.2],
    4: [64.6, 79.6, 88.0, 96.0, 98.2, 99.4, 99.8],
    5: [72.6, 86.8, 94.8, 98.6, 99.2, 99.8, 100.0],
    6: [80.4, 92.8, 97.4, 99.8, 100.0, 100.0, 100.0],
    7: [85.6, 96.2, 99.4, 100.0, 100.0, 100.0, 100.0],
    8: [89.0, 98.4, 100.0, 100.0, 100.0, 100.0, 100.0],
    9: [92.2, 98.8, 99.8, 100.0, 100.0, 100.0, 100.0],
    10: [95.8, 99.4, 99.8, 100.0, 100.0, 100.0, 100.0],
}


def table_from_powers(powers_by_n, m_values=range(2, 9)) -> PowerTable:
    rows = tuple(
        PowerRow(n=n, m=m, total_animals=2 * n * m, power=p, convergence=100.0)
        for n, row in sorted(powers_by_n.items())
        for m, p in zip(m_values, row)
    )
    return PowerTable(rows=rows, params=ANOVA_PILOT, sim=500,
                      alpha=0.05, seed=1)


def small_anova_job(workers=1, sim=40, seed=2024):
    grid = DesignGrid(n_values=(3, 4), m_values=(2, 3), sim=sim, alpha=0.05, seed=seed)
    return PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=workers)


def small_frailty_job(workers=1, sim=16, seed=2024):
    grid = DesignGrid(n_values=(3, 4), m_values=(2,), sim=sim, alpha=0.05, seed=seed)
    return PowerJob(grid=grid, model=CENSORED_FRAILTY, worker_count=workers)


def assert_same_across_worker_counts(make_job):
    tables = [run_power_grid(make_job(workers=w)) for w in (1, 2, 8)]
    assert tables[0].rows == tables[1].rows == tables[2].rows
    texts = {power_csv_text(t) for t in tables}
    assert len(texts) == 1


class TestDeterminism:
    def test_identical_output_across_worker_counts(self):
        assert_same_across_worker_counts(small_anova_job)

    def test_identical_censored_frailty_output_across_worker_counts(self):
        assert_same_across_worker_counts(small_frailty_job)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_identical_output_under_start_method(self, method):
        # macOS starts workers by spawn, and Python 3.14 makes forkserver the
        # Linux default; a fresh interpreter leaves this session's method as it is
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        code = f"""
import multiprocessing
from xenopower.engine import PowerJob, run_power_grid
from xenopower.io import power_csv_text
from xenopower.types import AnovaParams, DesignGrid, FrailtyParams

multiprocessing.set_start_method({method!r})
for model, m_values, sim in [({ANOVA_PILOT!r}, (2, 3), 600), ({CENSORED_FRAILTY!r}, (2,), 64)]:
    grid = DesignGrid(n_values=(3, 4), m_values=m_values, sim=sim, alpha=0.05, seed=2024)
    texts = {{power_csv_text(run_power_grid(PowerJob(grid=grid, model=model, worker_count=w)))
             for w in (1, 2)}}
    assert len(texts) == 1, model
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)

    def test_counting_identity(self):
        table = run_power_grid(small_anova_job())
        for row in table.rows:
            converged = row.convergence / 100.0 * table.sim
            rejections = row.power / 100.0 * converged
            assert converged == pytest.approx(round(converged), abs=1e-9)
            assert rejections == pytest.approx(round(rejections), abs=1e-9)

    def test_header_round_trip(self):
        table = run_power_grid(small_anova_job())
        doc = power_json_dict(table, minimal_designs(table, 0.8))
        h = doc["params"] | {"seed": doc["seed"]}
        params = AnovaParams(beta0=h["beta0"], beta=h["beta"], tau2=h["tau2"],
                             sigma2=h["sigma2"])
        grid = DesignGrid(n_values=(3, 4), m_values=(2, 3), sim=h["sim"],
                          alpha=h["alpha"], seed=h["seed"])
        rerun = run_power_grid(PowerJob(grid=grid, model=params, worker_count=1))
        assert rerun.rows == table.rows


class TestReplicatePipeline:
    # censoring at t=4 leaves about one fit in six non-converged at (3, 2),
    # so the frailty case exercises the dropped-replicate path
    @pytest.mark.filterwarnings("ignore:cell .* convergence rate")
    @pytest.mark.parametrize(
        "model, gen, fit, test",
        [(ANOVA_PILOT, gen_anova, fit_lmm, wald_test_lmm),
         (replace(CENSORED_FRAILTY, ct=4.0), gen_frailty, fit_frailty, wald_test_frailty)],
        ids=["anova", "frailty"],
    )
    def test_row_equals_hand_loop(self, model, gen, fit, test):
        n, m, sim, alpha, seed = 3, 2, 24, 0.05, 77
        grid = DesignGrid(n_values=(n,), m_values=(m,), sim=sim, alpha=alpha, seed=seed)
        row = run_power_grid(PowerJob(grid=grid, model=model, worker_count=1)).rows[0]

        censoring = np.zeros(sim)
        n_conv = n_rej = 0
        for r in range(sim):
            data = gen(n, m, model, replicate_stream(seed, n, m, r))
            censoring[r] = 1.0 - data.status.mean()
            try:
                result = fit(data)
            except (ValueError, FloatingPointError, np.linalg.LinAlgError):
                continue
            if result.converged:
                n_conv += 1
                n_rej += bool(test(result, alpha))

        assert row.convergence == 100.0 * n_conv / sim
        if isinstance(model, FrailtyParams):
            assert n_conv < sim
        assert row.power == 100.0 * n_rej / n_conv
        if isinstance(model, AnovaParams):
            assert row.censoring is None
        else:
            assert row.censoring == float(100.0 * np.mean(censoring))

    # the traced benchmark times each layer by swapping these names on the
    # engine module, so every replicate must reach its layers through them;
    # rebinding any one of them selects the per-replicate loop over either
    # model's stack
    LAYERS = ("replicate_stream", "gen_anova", "gen_frailty", "fit_lmm", "fit_frailty",
              "wald_test_lmm", "wald_test_frailty")

    @pytest.mark.filterwarnings("ignore:cell .* convergence rate")
    @pytest.mark.parametrize(
        "model, gen, fit, test",
        [(ANOVA_PILOT, "gen_anova", "fit_lmm", "wald_test_lmm"),
         (replace(CENSORED_FRAILTY, ct=4.0), "gen_frailty", "fit_frailty", "wald_test_frailty")],
        ids=["anova", "frailty"],
    )
    def test_layers_are_called_through_the_engine_names(self, monkeypatch, model, gen, fit,
                                                         test):
        calls = {name: [] for name in self.LAYERS}
        fits = []

        def counting(name, inner):
            def wrapper(*args):
                calls[name].append(args)
                out = inner(*args)
                if name == fit:
                    fits.append(out)
                return out
            return wrapper

        for name in self.LAYERS:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        sim = 24
        grid = DesignGrid(n_values=(3,), m_values=(2, 3), sim=sim, seed=77)
        run_power_grid(PowerJob(grid=grid, model=model, worker_count=1))

        replicates = len(grid.m_values) * sim
        assert len(calls["replicate_stream"]) == len(calls[gen]) == len(calls[fit]) == replicates
        assert all(isinstance(args[0], SimulatedDataset) for args in calls[fit])
        converged = [result for result in fits if result.converged]
        assert [args[0] for args in calls[test]] == converged
        assert 0 < len(converged) <= replicates
        assert not any(calls[name] for name in self.LAYERS
                       if name not in ("replicate_stream", gen, fit, test))

    ANOVA_LAYERS = ("replicate_stream", "gen_anova", "fit_lmm", "wald_test_lmm")

    # tau2 = 0 with beta = 0, and tau2/sigma2 = 2e4
    @pytest.mark.parametrize("model", [
        ANOVA_PILOT,
        AnovaParams(beta0=0.5, beta=0.0, tau2=0.0, sigma2=0.4),
        AnovaParams(beta0=0.0653, beta=0.7299, tau2=0.4, sigma2=2e-5),
    ], ids=["pilot", "null-boundary", "large-ratio"])
    @pytest.mark.parametrize("alpha", [0.01, 0.2])
    def test_stacked_grid_equals_the_loop(self, monkeypatch, model, alpha):
        # sim = 600 splits each cell into chunks of 512 and 88
        grid = DesignGrid(n_values=(2, 3), m_values=(1, 2), sim=600, alpha=alpha, seed=78)
        job = PowerJob(grid=grid, model=model, worker_count=1)
        stacks = []

        def spy(*args):
            stacked = simulate(*args)
            stacks.append(stacked[0].shape)
            return stacked

        simulate = engine._simulate
        monkeypatch.setattr(engine, "_simulate", spy)
        stacked = run_power_grid(job)
        assert stacks == [(512, 4), (88, 4), (512, 8), (88, 8), (512, 6), (88, 6),
                          (512, 12), (88, 12)]
        for name in self.ANOVA_LAYERS:
            monkeypatch.setattr(engine, name, lambda *args, _inner=getattr(engine, name):
                                _inner(*args))
        assert run_power_grid(job) == stacked
        assert len(stacks) == 8  # the loop never stacks

    # the censored pilot's tau2 = 0 parameters, a beta = 0 null, and ct = 4
    # with non-converged replicates; at the pilot's and ct = 4, (2, 1)
    # converges too rarely to report, so the two runs must raise alike
    @pytest.mark.filterwarnings("ignore:cell .* convergence rate")
    @pytest.mark.parametrize("model", [
        CENSORED_FRAILTY,
        elicit_frailty_from_pilot(pilot_censored(), censor=True, ct=8.0),
        replace(CENSORED_FRAILTY, beta=0.0),
        replace(CENSORED_FRAILTY, ct=4.0),
    ], ids=["median", "pilot", "null", "ct4"])
    def test_stacked_frailty_grid_equals_the_loop(self, monkeypatch, model):
        # at chunks of 32, sim = 40 splits each cell into a full and a
        # partial chunk; at the default size a cell is one chunk
        def outcome(n, m):
            grid = DesignGrid(n_values=(n,), m_values=(m,), sim=40, alpha=0.05, seed=79)
            try:
                return run_power_grid(PowerJob(grid=grid, model=model, worker_count=1))
            except EngineError as error:
                return str(error)

        cells = [(2, 1), (3, 2), (10, 8)]
        stacks = []

        def spy(*args):
            stacked = simulate(*args)
            stacks.append(stacked[0].shape)
            return stacked

        simulate = engine._simulate
        monkeypatch.setattr(engine, "_simulate", spy)
        default = outcome(3, 2)
        assert stacks == [(40, 12)]
        stacks.clear()
        monkeypatch.setattr(engine, "_BLOCK", 32)
        stacked = [outcome(n, m) for n, m in cells]
        assert stacks == [(32, 4), (8, 4), (32, 12), (8, 12), (32, 160), (8, 160)]
        assert stacked[1] == default
        monkeypatch.setattr(engine, "fit_frailty", lambda data: fit_frailty(data))
        assert [outcome(n, m) for n, m in cells] == stacked
        assert len(stacks) == 6  # the loop never stacks

    @pytest.mark.parametrize("model", [ANOVA_PILOT, CENSORED_FRAILTY], ids=["anova", "frailty"])
    def test_default_chunk_keys_no_stream_per_replicate(self, monkeypatch, model):
        # an untraced chunk re-keys one generator; replicate_stream builds a
        # SeedSequence for each replicate it keys
        def unkeyed(*args):
            raise AssertionError("a chunk keyed a stream per replicate")

        monkeypatch.setattr(datagen.np.random, "SeedSequence", unkeyed)
        monkeypatch.setattr(datagen, "replicate_stream", unkeyed)
        # 500..529 cross a block of keys
        rejected, converged, _ = engine._run_chunk((model, 3, 2, 0.05, 77, 500, 530))
        assert rejected.shape == (30,) and converged.all()

    def test_default_frailty_chunk_never_fits_one_replicate(self, monkeypatch):
        # every fit_frailty call lays its dataset out as one row; the stack lays out none
        def unbuilt(*args):
            raise AssertionError("a frailty chunk called fit_frailty")

        monkeypatch.setattr(frailty, "_one_row", unbuilt)
        grid = DesignGrid(n_values=(3,), m_values=(2, 5), sim=40, alpha=0.05, seed=79)
        table = run_power_grid(PowerJob(grid=grid, model=CENSORED_FRAILTY, worker_count=1))
        assert [row.convergence for row in table.rows] == [100.0, 100.0]

    @pytest.mark.filterwarnings("ignore:cell .* convergence rate")
    @pytest.mark.parametrize("name", LAYERS)
    @pytest.mark.parametrize("model", [ANOVA_PILOT, CENSORED_FRAILTY], ids=["anova", "frailty"])
    def test_any_rebound_layer_selects_the_loop(self, monkeypatch, name, model):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=8, alpha=0.05, seed=79)
        job = PowerJob(grid=grid, model=model, worker_count=1)
        stacked = run_power_grid(job)

        def unstacked(*args):
            raise AssertionError("a chunk stacked with a layer name rebound")

        monkeypatch.setattr(engine, name, lambda *args, _inner=getattr(engine, name):
                            _inner(*args))
        monkeypatch.setattr(engine, "_simulate", unstacked)
        assert run_power_grid(job) == stacked

    def test_stacked_outcomes_are_gen_anova_outcomes(self, monkeypatch):
        # replicates 500..529 cross the 512-replicate block of stream keys
        stacked = []

        def spy(*args):
            y, status, censoring = simulate(*args)
            assert status is None and not censoring.any()
            stacked.append(y.copy())
            return y, status, censoring

        simulate = engine._simulate
        monkeypatch.setattr(engine, "_simulate", spy)
        p = ANOVA_PILOT
        for n, m in [(2, 1), (3, 2), (7, 3), (10, 8)]:
            engine._run_chunk((p, n, m, 0.05, 77, 500, 530))
            for r, row in zip(range(500, 530), stacked.pop()):
                data = gen_anova(n, m, p, replicate_stream(77, n, m, r))
                # the model drawn term by term with normal(), line effects first
                stream = replicate_stream(77, n, m, r)
                line_eff = stream.normal(0.0, math.sqrt(p.tau2), size=n)
                eps = stream.normal(0.0, math.sqrt(p.sigma2), size=2 * n * m)
                drawn = np.exp(p.beta0 + data.tx * p.beta + line_eff[data.line_index - 1] + eps)
                assert row.tobytes() == data.y.tobytes() == drawn.tobytes(), (n, m, r)

    def test_anova_chunk_never_reads_censoring(self, monkeypatch):
        # uncensored data have no censoring to average, and no row reports it
        def unread(data):
            raise AssertionError("an ANOVA chunk read censoring_fraction")

        monkeypatch.setattr(SimulatedDataset, "censoring_fraction", property(unread))
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=8, seed=77)
        row = run_power_grid(PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=1)).rows[0]
        assert row.convergence == 100.0
        assert row.censoring is None


class TestProgress:
    def test_callback_counts_cells(self):
        seen = []
        run_power_grid(small_anova_job(), progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestConvergenceHandling:
    def test_all_censored_cell_is_an_error(self, monkeypatch):
        generated_n = []

        def spy(n, m, params, stream):
            generated_n.append(n)
            return gen_frailty(n, m, params, stream)

        monkeypatch.setattr("xenopower.engine.gen_frailty", spy)
        grid = DesignGrid(n_values=(2, 3), m_values=(2,), sim=10, alpha=0.05, seed=5)
        model = FrailtyParams(lam=1e-6, nu=1.0, beta=0.0, tau2=0.0, censor=True, ct=1.0)
        with pytest.raises(EngineError, match=r"cell \(n=2, m=2\)"):
            run_power_grid(PowerJob(grid=grid, model=model, worker_count=1))
        # the run ends at the first hopeless cell: no later cell is simulated
        assert generated_n and 3 not in generated_n

    def test_hopeless_first_cell_stops_submitting_chunks(self, monkeypatch):
        # an in-process stand-in for the worker pool that counts submitted chunks
        submitted = []

        class CountingPool(Executor):
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def submit(self, fn, *args):
                submitted.append(args[0][1:3])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("xenopower.engine.ProcessPoolExecutor", CountingPool)
        # sim = 1024 makes two chunks of 512 per cell
        grid = DesignGrid(n_values=(2, 3, 4, 5, 6), m_values=(2,), sim=1024, alpha=0.05, seed=5)
        model = FrailtyParams(lam=1e-6, nu=1.0, beta=0.0, tau2=0.0, censor=True, ct=1.0)
        with pytest.raises(EngineError, match=r"cell \(n=2, m=2\)"):
            run_power_grid(PowerJob(grid=grid, model=model, worker_count=2))
        # two chunks of the failing cell plus a window of two per worker,
        # not all ten chunks of the grid
        assert len(submitted) == 2 + 2 * 2
        assert submitted[:2] == [(2, 2), (2, 2)]

    def test_fit_that_raises_is_neither_converged_nor_rejected(self, monkeypatch):
        # every fifth replicate's fit raises ValueError, as fitters do on data they refuse
        n, m, sim, seed = 3, 2, 24, 9
        datasets = [gen_frailty(n, m, CENSORED_FRAILTY, replicate_stream(seed, n, m, r))
                    for r in range(sim)]
        refused = {ds.y.tobytes() for ds in datasets[::5]}

        def fit(data):
            if data.y.tobytes() in refused:
                raise ValueError("refused")
            return fit_frailty(data)

        monkeypatch.setattr(engine, "fit_frailty", fit)
        grid = DesignGrid(n_values=(n,), m_values=(m,), sim=sim, alpha=0.05, seed=seed)
        job = PowerJob(grid=grid, model=CENSORED_FRAILTY, worker_count=1)
        with pytest.warns(RuntimeWarning, match="below 99%"):
            row = run_power_grid(job).rows[0]
        fits = [fit_frailty(ds) for ds in datasets if ds.y.tobytes() not in refused]
        converged = [f for f in fits if f.converged]
        rejected = sum(wald_test_frailty(f, 0.05) for f in converged)
        assert len(refused) == 5 and len(converged) > 10
        assert row.convergence == 100.0 * len(converged) / sim
        assert row.power == 100.0 * rejected / len(converged)

    def test_partial_convergence_warns(self):
        grid = DesignGrid(n_values=(2,), m_values=(2,), sim=60, alpha=0.05, seed=5)
        model = FrailtyParams(lam=0.8, nu=1.0, beta=0.0, tau2=0.0, censor=True, ct=1.0)
        with pytest.warns(RuntimeWarning, match="below 99%"):
            table = run_power_grid(PowerJob(grid=grid, model=model, worker_count=1))
        row = table.rows[0]
        assert 50.0 <= row.convergence < 99.0


class TestPoolSize:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """max_workers of each pool run_power_grid creates; an in-process
        stand-in runs the chunks, so no process starts."""
        sizes = []

        class RecordingPool(Executor):
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("xenopower.engine.ProcessPoolExecutor", RecordingPool)
        return sizes

    @staticmethod
    def job(m_values, workers):
        grid = DesignGrid(n_values=(3,), m_values=m_values, sim=8, alpha=0.05, seed=3)
        return PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=workers)

    def test_one_chunk_grid_runs_in_process(self, pool_sizes):
        # a pool would start all eight processes for the grid's one chunk
        table = run_power_grid(self.job((2,), 8))
        assert pool_sizes == []
        assert table == run_power_grid(self.job((2,), 1))

    def test_pool_has_no_more_workers_than_chunks(self, pool_sizes):
        table = run_power_grid(self.job((2, 3, 4), 8))
        assert pool_sizes == [3]
        assert table == run_power_grid(self.job((2, 3, 4), 1))

    def test_auto_workers_honour_cpu_affinity(self, pool_sizes, monkeypatch):
        # taskset or a cpuset can leave a process fewer CPUs than the host has
        monkeypatch.setattr("xenopower.engine.os.sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr("xenopower.engine.os.cpu_count", lambda: 8)
        table = run_power_grid(self.job((2, 3, 4), "auto"))
        assert pool_sizes == []
        assert table == run_power_grid(self.job((2, 3, 4), 1))

    def test_auto_workers_fall_back_to_cpu_count(self, pool_sizes, monkeypatch):
        # platforms without sched_getaffinity
        monkeypatch.delattr("xenopower.engine.os.sched_getaffinity", raising=False)
        monkeypatch.setattr("xenopower.engine.os.cpu_count", lambda: 2)
        run_power_grid(self.job((2, 3, 4), "auto"))
        assert pool_sizes == [2]


class TestWorkUnits:
    @pytest.fixture
    def submitted(self, monkeypatch):
        """(n, m, r_start, r_stop) of each chunk submitted to an in-process
        stand-in for the worker pool."""
        chunks = []

        class CountingPool(Executor):
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                chunks.append(args[0][1:3] + args[0][5:])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("xenopower.engine.ProcessPoolExecutor", CountingPool)
        return chunks

    # sim=40 is a multiple of none of the sizes but 1, so cells end in
    # partial chunks; at sim=530 the size-7 chunk 511..518 takes its keys
    # from two blocks
    @pytest.mark.parametrize("sim, sizes", [(40, (1, 7, 32, 512)), (530, (7,))],
                             ids=["partial", "crossing"])
    @pytest.mark.parametrize("make_job", [small_anova_job, small_frailty_job],
                             ids=["anova", "censored-frailty"])
    def test_table_independent_of_chunk_size(self, monkeypatch, make_job, sim, sizes):
        expected = run_power_grid(make_job(sim=sim))
        for size in sizes:
            monkeypatch.setattr(engine, "_BLOCK", size)
            assert run_power_grid(make_job(sim=sim)) == expected

    def test_anova_cell_is_one_chunk(self, submitted):
        grid = DesignGrid(n_values=(3,), m_values=(2, 3, 4), sim=96, alpha=0.05, seed=3)
        run_power_grid(PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=2))
        assert submitted == [(3, 2, 0, 96), (3, 3, 0, 96), (3, 4, 0, 96)]

    def test_anova_chunks_split_a_cell_at_512(self, submitted):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=600, alpha=0.05, seed=3)
        run_power_grid(PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=2))
        assert submitted == [(3, 2, 0, 512), (3, 2, 512, 600)]


class TestFrailtyColumns:
    def test_censoring_column_present_for_frailty_runs(self):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=30, alpha=0.05, seed=9)
        model = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                              censor=True, ct=12.0)
        table = run_power_grid(PowerJob(grid=grid, model=model, worker_count=1))
        assert table.has_censoring
        assert 0.0 < table.rows[0].censoring < 100.0

    def test_censoring_column_absent_for_anova_runs(self):
        table = run_power_grid(small_anova_job())
        assert not table.has_censoring
        assert all(r.censoring is None for r in table.rows)


class TestMinimalDesigns:
    def test_pilot_table_frontier(self):
        table = table_from_powers(PILOT_POWER_TABLE)
        assert minimal_designs(table, 0.80) == [(3, 5), (4, 4), (5, 3), (6, 2)]

    def test_all_full_power_keeps_smallest_cell(self):
        powers = {n: [100.0] * 7 for n in range(3, 11)}
        table = table_from_powers(powers)
        assert minimal_designs(table, 0.80) == [(3, 2)]

    def test_nothing_qualifies_gives_empty_list(self):
        powers = {n: [0.0] * 7 for n in range(3, 11)}
        table = table_from_powers(powers)
        assert minimal_designs(table, 0.80) == []

    def test_selection_uses_unrounded_power(self):
        powers = {3: [79.96, 81.0], 4: [80.04, 99.0]}
        table = table_from_powers(powers, m_values=(2, 3))
        # 79.96 displays as 80.0 but does not qualify
        assert minimal_designs(table, 0.80) == [(3, 3), (4, 2)]

    @pytest.mark.parametrize("target", [80, 1.0, 0.0, -1.0, float("nan")])
    def test_target_outside_unit_interval_rejected(self, target):
        # unchecked, a percentage (80) selects nothing and a negative target
        # selects the cheapest cells
        table = table_from_powers(PILOT_POWER_TABLE)
        with pytest.raises(ValidationError, match="target_power"):
            minimal_designs(table, target)

    def test_frontier_soundness_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            powers = {n: list(np.round(rng.uniform(0, 100, size=4), 1)) for n in (3, 4, 5)}
            table = table_from_powers(powers, m_values=(2, 3, 4, 5))
            frontier = minimal_designs(table, 0.7)
            qualifying = {(r.n, r.m) for r in table.rows if r.power >= 70.0}
            for cell in frontier:
                assert cell in qualifying
            for a in frontier:
                for b in frontier:
                    if a != b:
                        assert not (a[0] <= b[0] and a[1] <= b[1])
            for cell in qualifying - set(frontier):
                assert any(
                    f[0] <= cell[0] and f[1] <= cell[1] and f != cell for f in frontier
                )


class TestJobValidation:
    def test_target_power_bounds(self):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=0.05, seed=1)
        with pytest.raises(ValidationError, match="target_power"):
            PowerJob(grid=grid, model=ANOVA_PILOT, target_power=1.0)

    def test_worker_count_checked(self):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=0.05, seed=1)
        with pytest.raises(ValidationError, match="worker_count"):
            PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=0)

    @pytest.mark.parametrize("count", [True, 2.0, "2"])
    def test_worker_count_must_be_an_integer(self, count):
        # True used to pass as the integer 1
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=0.05, seed=1)
        with pytest.raises(ValidationError, match="worker_count"):
            PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=count)

    def test_numpy_integer_worker_count_accepted(self):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=0.05, seed=1)
        assert PowerJob(grid=grid, model=ANOVA_PILOT, worker_count=np.int64(2)).worker_count == 2

    def test_model_type_checked(self):
        grid = DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=0.05, seed=1)
        with pytest.raises(ValidationError, match="model"):
            PowerJob(grid=grid, model="anova")

    def test_invalid_grid_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="alpha"):
            DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=2.0, seed=1)
