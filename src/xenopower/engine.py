"""Monte Carlo power estimation over an (n, m) design grid.

Each replicate of each cell draws its random stream from the master seed
and its own (n, m, r) coordinates, so results are bit-identical no matter
how many workers run or how work is scheduled. Replicates are simulated,
fitted, and tested independently; per-cell results are reduced in
replicate order.

Power is the rejection fraction among converged replicates, with the
convergence rate reported alongside; the average censoring rate is a
property of the generated data and is averaged over all replicates.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .datagen import gen_anova, gen_frailty, replicate_stream
from .frailty import fit_frailty, wald_test_frailty
from .lmm import fit_lmm, wald_test_lmm
from .types import (
    AnovaParams,
    DesignGrid,
    FrailtyParams,
    PowerRow,
    PowerTable,
    ValidationError,
)

__all__ = ["PowerJob", "EngineError", "run_power_grid", "minimal_designs"]

_CHUNK = 32
_MIN_CONVERGENCE_PCT = 50.0
_WARN_CONVERGENCE_PCT = 99.0


class EngineError(RuntimeError):
    """Raised when a grid cell cannot produce a meaningful power estimate."""


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
        if not 0.0 < self.target_power < 1.0:
            raise ValidationError(f"target_power must lie in (0,1), got {self.target_power}")
        if self.worker_count != "auto":
            if not isinstance(self.worker_count, int) or self.worker_count < 1:
                raise ValidationError(
                    f"worker_count must be a positive integer or 'auto', got {self.worker_count!r}"
                )


def _run_chunk(task) -> Tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Worker entry: simulate, fit and test replicates r_start..r_stop-1 of
    one cell. A fit that raises or does not converge counts as neither
    converged nor rejected."""
    model, n, m, alpha, seed, r_start, r_stop = task
    # looked up at call time so the layer functions can be swapped on the module
    if isinstance(model, AnovaParams):
        gen, fit, test = gen_anova, fit_lmm, wald_test_lmm
    else:
        gen, fit, test = gen_frailty, fit_frailty, wald_test_frailty
    count = r_stop - r_start
    rejected = np.zeros(count, dtype=bool)
    converged = np.zeros(count, dtype=bool)
    censoring = np.zeros(count, dtype=np.float64)
    for i, r in enumerate(range(r_start, r_stop)):
        data = gen(n, m, model, replicate_stream(seed, n, m, r))
        censoring[i] = data.censoring_fraction
        try:
            result = fit(data)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError):
            continue
        if result.converged:
            converged[i] = True
            rejected[i] = test(result, alpha)
    return n, m, r_start, rejected, converged, censoring


def _resolve_workers(worker_count: Union[int, str]) -> int:
    if worker_count == "auto":
        return max(os.cpu_count() or 1, 1)
    return int(worker_count)


def run_power_grid(job: PowerJob, progress: Optional[Callable[[int, int], None]] = None) -> PowerTable:
    """Estimate power for every (n, m) cell of the job's grid.

    ``progress``, when given, is called with (cells_completed, total_cells)
    from the coordinating thread each time a cell finishes. The returned
    table is identical for any worker count.
    """
    grid = job.grid
    workers = _resolve_workers(job.worker_count)
    cells = [(n, m) for n in grid.n_values for m in grid.m_values]
    sim, alpha, seed = grid.sim, grid.alpha, grid.seed
    is_frailty = isinstance(job.model, FrailtyParams)

    tasks = []
    for n, m in cells:
        for r0 in range(0, sim, _CHUNK):
            tasks.append((job.model, n, m, alpha, seed, r0, min(r0 + _CHUNK, sim)))

    rej = {c: np.zeros(sim, dtype=bool) for c in cells}
    conv = {c: np.zeros(sim, dtype=bool) for c in cells}
    cens = {c: np.zeros(sim, dtype=np.float64) for c in cells}
    pending = {c: 0 for c in cells}
    for t in tasks:
        pending[(t[1], t[2])] += 1

    done_cells = 0

    def _absorb(result):
        nonlocal done_cells
        n, m, r0, rejected, converged, censoring = result
        cell = (n, m)
        rej[cell][r0:r0 + rejected.size] = rejected
        conv[cell][r0:r0 + converged.size] = converged
        cens[cell][r0:r0 + censoring.size] = censoring
        pending[cell] -= 1
        if pending[cell] == 0:
            done_cells += 1
            if progress is not None:
                progress(done_cells, len(cells))

    if workers == 1:
        for t in tasks:
            _absorb(_run_chunk(t))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, t) for t in tasks]
            for fut in as_completed(futures):
                _absorb(fut.result())

    rows: List[PowerRow] = []
    for n, m in cells:
        cell = (n, m)
        n_conv = int(conv[cell].sum())
        n_rej = int((rej[cell] & conv[cell]).sum())
        convergence = 100.0 * n_conv / sim
        if convergence < _MIN_CONVERGENCE_PCT:
            raise EngineError(
                f"cell (n={n}, m={m}) converged in only {convergence:.1f}% of replicates; "
                "power would be meaningless"
            )
        if convergence < _WARN_CONVERGENCE_PCT:
            warnings.warn(
                f"cell (n={n}, m={m}) convergence rate {convergence:.1f}% is below 99%",
                RuntimeWarning,
                stacklevel=2,
            )
        power = 100.0 * n_rej / n_conv
        rows.append(
            PowerRow(
                n=n,
                m=m,
                total_animals=2 * n * m,
                power=power,
                convergence=convergence,
                censoring=float(100.0 * np.mean(cens[cell])) if is_frailty else None,
            )
        )

    return PowerTable(
        rows=tuple(rows),
        model="frailty" if is_frailty else "anova",
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
    empty list when nothing qualifies.
    """
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
