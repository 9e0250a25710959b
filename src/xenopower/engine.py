"""Monte Carlo power estimation over an (n, m) design grid.

Each replicate of each cell draws its random stream from the master seed
and its own (n, m, r) coordinates, so results are bit-identical no matter
how many workers run or how work is scheduled. Replicates are simulated,
fitted, and tested independently. Cells are reduced in grid order, each
from its replicates in replicate order, as soon as they are in; a cell
under 50% convergence ends the run there, before later cells are reduced.

Work goes to the worker processes in chunks of up to 512 consecutive
replicates of one cell, for either model: the block of replicates whose
stream keys are hashed together. A chunk never spans two cells. A chunk
is one stack: datagen._simulate draws each replicate's row from its own
stream, one Philox generator re-keyed per replicate (gen_anova and
gen_frailty are its one-row case, so a row is their dataset bit for
bit), then lmm._balanced_tests or frailty._stacked_tests decides the
rows at once as fit_* and wald_test_* decide a lone dataset: a row is
rejected when |beta_hat|/se exceeds the cell's one critical value
(Student-t, or normal for frailty), with no p-value formed. Workers get
at most two chunks each ahead of the one being read. A chunk can be a
whole cell, so a run that ends early may leave up to two cells' worth of
chunks per worker behind. A chunk loops over its replicates through
gen_*, fit_* and wald_test_* only while one of those names, or
replicate_stream, is rebound here: the traced benchmark and the layer
tests do that to see each call, which a stack never makes (until chunk
spans, ROADMAP item 1).

Power is the rejection fraction among converged replicates, with the
convergence rate reported alongside; the average censoring rate is a
property of the generated data and is averaged over all replicates.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .datagen import (_BLOCK, _chunk_streams, _design_arrays, _simulate, gen_anova, gen_frailty,
                      replicate_stream)
from .frailty import _special, _stacked_tests, fit_frailty, wald_test_frailty
from .lmm import _balanced_tests, fit_lmm, wald_test_lmm
from .types import (
    AnovaParams,
    DesignGrid,
    FrailtyParams,
    PowerRow,
    PowerTable,
    ValidationError,
    _is_integer,
)

__all__ = ["PowerJob", "EngineError", "run_power_grid", "minimal_designs"]

_MIN_CONVERGENCE_PCT = 50.0
_WARN_CONVERGENCE_PCT = 99.0
_WINDOW_PER_WORKER = 2


class EngineError(RuntimeError):
    """Raised when a grid cell cannot produce a meaningful power estimate."""


def _check_target_power(target_power: float) -> None:
    if not 0.0 < target_power < 1.0:
        raise ValidationError(f"target_power must lie in (0,1), got {target_power}")


@dataclass(frozen=True)
class PowerJob:
    """A full power-analysis request: grid, generating model, and target."""

    grid: DesignGrid
    model: Union[AnovaParams, FrailtyParams]
    target_power: float = 0.80
    worker_count: Union[int, str] = "auto"

    def __post_init__(self):
        if not isinstance(self.model, (AnovaParams, FrailtyParams)):
            raise ValidationError("model must be AnovaParams or FrailtyParams")
        _check_target_power(self.target_power)
        if self.worker_count != "auto":
            if not _is_integer(self.worker_count) or self.worker_count < 1:
                raise ValidationError(
                    f"worker_count must be a positive integer or 'auto', got {self.worker_count!r}"
                )
        if isinstance(self.model, FrailtyParams):
            # load the fit's scipy.special here, so fork-started workers share it
            _special()


def _layers() -> tuple:
    """The layer functions a chunk reaches through this module's names."""
    return (replicate_stream, gen_anova, gen_frailty, fit_lmm, fit_frailty, wald_test_lmm,
            wald_test_frailty)


# the layers as imported; _run_chunk stacks a chunk only while every one of
# these names is still bound to them
_LAYERS = _layers()


def _run_chunk(task) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worker entry: simulate, fit and test replicates r_start..r_stop-1 of
    one cell, returning (rejected, converged, censoring) in replicate order.
    A fit that raises or does not converge counts as neither converged nor
    rejected."""
    model, n, m, alpha, seed, r_start, r_stop = task
    # The traced benchmark and the layer tests rebind these names to see one
    # call per replicate, so a rebound name selects the per-replicate loop.
    # Chunk-level spans (ROADMAP item 1) retire this comparison.
    if _layers() == _LAYERS:
        design = _design_arrays(n, m)[3]
        streams = _chunk_streams(seed, n, m, r_start, r_stop)
        y, status, censoring = _simulate(model, design, streams, r_stop - r_start)
        # both deciders map (y, status, design, alpha) to (rejected, converged, |t|)
        decide = _stacked_tests if isinstance(model, FrailtyParams) else _balanced_tests
        rejected, converged, _t = decide(y, status, design, alpha)
        return rejected, converged, censoring
    # looked up at call time so the layer functions can be swapped on the module
    is_frailty = isinstance(model, FrailtyParams)
    if is_frailty:
        gen, fit, test = gen_frailty, fit_frailty, wald_test_frailty
    else:
        gen, fit, test = gen_anova, fit_lmm, wald_test_lmm
    count = r_stop - r_start
    rejected = np.zeros(count, dtype=bool)
    converged = np.zeros(count, dtype=bool)
    censoring = np.zeros(count, dtype=np.float64)
    for i, r in enumerate(range(r_start, r_stop)):
        data = gen(n, m, model, replicate_stream(seed, n, m, r))
        if is_frailty:  # uncensored data have none, and no row reports it
            censoring[i] = data.censoring_fraction
        try:
            result = fit(data)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError):
            continue
        if result.converged:
            converged[i] = True
            rejected[i] = test(result, alpha)
    return rejected, converged, censoring


def _windowed(pool: ProcessPoolExecutor, tasks: list, window: int) -> Iterator:
    """_run_chunk results over tasks in order, with at most ``window``
    chunks submitted ahead of the one being read, so a run that stops
    early leaves little work behind."""
    remaining = iter(tasks)
    pending = deque(pool.submit(_run_chunk, task) for task in islice(remaining, window))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(_run_chunk, task) for task in islice(remaining, 1))
        yield result


def _resolve_workers(worker_count: Union[int, str]) -> int:
    """The worker count; "auto" is every CPU this process may run on, which
    an affinity mask or cpuset (taskset, Slurm) can make fewer than the
    host's."""
    if worker_count != "auto":
        return int(worker_count)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reduce_cell(n: int, m: int, rejected: np.ndarray, converged: np.ndarray,
                 censoring: np.ndarray, is_frailty: bool) -> PowerRow:
    """One cell's row; raises EngineError or warns when replicates failed to converge."""
    n_conv = int(converged.sum())
    convergence = 100.0 * n_conv / converged.size
    if convergence < _MIN_CONVERGENCE_PCT:
        raise EngineError(
            f"cell (n={n}, m={m}) converged in only {convergence:.1f}% of replicates; "
            "power would be meaningless"
        )
    if convergence < _WARN_CONVERGENCE_PCT:
        warnings.warn(
            f"cell (n={n}, m={m}) convergence rate {convergence:.1f}% is below 99%",
            RuntimeWarning,
            stacklevel=3,  # the caller of run_power_grid
        )
    return PowerRow(
        n=n, m=m, total_animals=2 * n * m,
        power=100.0 * int(rejected.sum()) / n_conv, convergence=convergence,
        censoring=float(100.0 * np.mean(censoring)) if is_frailty else None,
    )


def run_power_grid(job: PowerJob, progress: Optional[Callable[[int, int], None]] = None) -> PowerTable:
    """Estimate power for every (n, m) cell of the job's grid.

    A cell below 50% convergence raises EngineError before later cells run.
    ``progress``, when given, is called with (cells_completed, total_cells)
    from the coordinating thread each time a cell finishes. The returned
    table is identical for any worker count.
    """
    grid = job.grid
    cells = [(n, m) for n in grid.n_values for m in grid.m_values]
    sim, alpha, seed = grid.sim, grid.alpha, grid.seed
    is_frailty = isinstance(job.model, FrailtyParams)
    chunks_per_cell = len(range(0, sim, _BLOCK))
    tasks = [(job.model, n, m, alpha, seed, r0, min(r0 + _BLOCK, sim))
             for n, m in cells for r0 in range(0, sim, _BLOCK)]
    # a process pool starts all its workers at its first submit, so start
    # none that no chunk needs
    workers = min(_resolve_workers(job.worker_count), len(tasks))

    # one worker stays in-process so the layer functions can be swapped
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        results = (map(_run_chunk, tasks) if pool is None
                   else _windowed(pool, tasks, _WINDOW_PER_WORKER * workers))
        rows: List[PowerRow] = []
        for n, m in cells:
            chunks = list(islice(results, chunks_per_cell))
            outcomes = (np.concatenate(arrays) for arrays in zip(*chunks))
            rows.append(_reduce_cell(n, m, *outcomes, is_frailty))
            if progress is not None:
                progress(len(rows), len(cells))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    return PowerTable(
        rows=tuple(rows),
        params=job.model,
        sim=sim,
        alpha=alpha,
        seed=seed,
    )


def minimal_designs(table: PowerTable, target_power: float) -> List[Tuple[int, int]]:
    """Pareto frontier of designs meeting the target power.

    A qualifying cell (n, m) is kept unless some other qualifying cell
    needs no more lines and no more animals per arm, with strictly fewer
    of at least one. Selection uses unrounded power values. Returns an
    empty list when nothing qualifies. A target outside (0, 1) raises
    ValidationError.
    """
    _check_target_power(target_power)
    threshold = 100.0 * target_power
    qualifying = [(r.n, r.m) for r in table.rows if r.power >= threshold]
    frontier = [
        (n, m)
        for n, m in qualifying
        if not any(
            (n2 <= n and m2 <= m and (n2 < n or m2 < m)) for n2, m2 in qualifying
        )
    ]
    return sorted(frontier)
