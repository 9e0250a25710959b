"""Benchmark workloads: what each one runs, and how seeds become grid seeds.

Standard library only, so the orchestrator can read it without importing
xenopower. The replicates per pass (``sim``) are sized so that a pass of the
grid at two workers takes a few seconds on a 2-core machine: long enough to
time steadily, short enough that several passes fit in one run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# Cells every workload's grid contains; per-cell layer timings use these.
CHECK_CELLS: Tuple[Tuple[int, int], ...] = ((3, 2), (6, 5), (10, 8))

SMOKE_SIM = 4
TARGET_POWER = 0.8
ALPHA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "anova" or "frailty"
    pilot: Optional[str]  # bundled pilot CSV ("uncensored"/"censored"), None for medians
    n_values: Tuple[int, ...]
    m_values: Tuple[int, ...]
    sim: int
    medians: Dict[str, float] = field(default_factory=dict)
    censor_time: Optional[float] = None

    @property
    def cells(self) -> int:
        return len(self.n_values) * len(self.m_values)


_FULL_N, _FULL_M = tuple(range(3, 11)), tuple(range(2, 9))
_SMOKE_N, _SMOKE_M = (3, 6, 10), (2, 5, 8)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="anova-grid",
            model="anova",
            pilot="uncensored",
            n_values=_FULL_N,
            m_values=_FULL_M,
            sim=96,
        ),
        Workload(
            name="frailty-grid",
            model="frailty",
            pilot=None,
            n_values=_SMOKE_N,
            m_values=_SMOKE_M,
            sim=64,
            medians={"ctl_med": 2.4, "tx_med": 7.2, "nu": 1.0, "tau2": 0.1},
            censor_time=12.0,
        ),
        Workload(
            name="frailty-pilot",
            model="frailty",
            pilot="censored",
            n_values=_SMOKE_N,
            m_values=_SMOKE_M,
            sim=64,
            censor_time=8.0,
        ),
    )
}


def grid_seed(workload: str, seed: int, pass_index: int) -> int:
    """Master seed of one pass: a pure function of the workload, the run's
    seed and the pass number, far from any seed a user would type."""
    digest = hashlib.sha256(f"{workload}/{seed}/{pass_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**63


def cell_name(n: int, m: int) -> str:
    return f"n{n}m{m}"
