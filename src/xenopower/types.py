"""Shared domain types for the xenograft power-analysis toolkit.

All containers here are immutable after construction and safe to share
across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "ValidationError",
    "DesignGrid",
    "AnovaParams",
    "FrailtyParams",
    "PilotRecord",
    "PilotDataset",
    "PowerRow",
    "PowerTable",
    "validate_grid",
]


class ValidationError(ValueError):
    """Raised when a domain object violates one of its invariants."""


@dataclass(frozen=True)
class DesignGrid:
    """The (n, m) design grid to sweep, plus Monte Carlo settings.

    n_values are candidate numbers of tumor lines; m_values are candidate
    numbers of animals per line per treatment arm. ``sim`` is the number of
    Monte Carlo replicates per grid cell and ``seed`` the master seed from
    which every replicate stream is derived. An invalid grid raises
    ValidationError at construction.
    """

    n_values: Tuple[int, ...]
    m_values: Tuple[int, ...]
    sim: int
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "m_values", tuple(self.m_values))
        validate_grid(self)
        # numpy integers pass validation; store plain ints
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "m_values", tuple(int(v) for v in self.m_values))


@dataclass(frozen=True)
class AnovaParams:
    """Generating parameters for the log-normal outcome model.

    log Y = beta0 + tx*beta + line effect + residual, with line effects
    N(0, tau2) and residuals N(0, sigma2).
    """

    beta0: float
    beta: float
    tau2: float
    sigma2: float

    def __post_init__(self):
        _require_finite(self, ("beta0", "beta", "tau2", "sigma2"))
        if self.tau2 < 0:
            raise ValidationError(f"tau2 must be nonnegative, got {self.tau2}")
        if self.sigma2 <= 0:
            raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")

    @property
    def icc(self) -> float:
        """Fraction of total variance attributable to line heterogeneity."""
        return self.tau2 / (self.tau2 + self.sigma2)


@dataclass(frozen=True)
class FrailtyParams:
    """Generating parameters for the Weibull proportional-hazards model
    with a normal per-line frailty on the log-hazard scale.

    The conditional hazard is lam * nu * t**(nu-1) * exp(tx*beta + a) with
    a ~ N(0, tau2) per line. ``censor`` is a bool (a numpy bool is stored
    as a Python one). When it is set, outcomes are administratively
    censored at time ``ct``; without it ``ct`` must be left as None.
    """

    lam: float
    nu: float
    beta: float
    tau2: float
    censor: bool = False
    ct: Optional[float] = None

    def __post_init__(self):
        _require_finite(self, ("lam", "nu", "beta", "tau2"))
        if self.lam <= 0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
        if self.nu <= 0:
            raise ValidationError(f"nu must be positive, got {self.nu}")
        if self.tau2 < 0:
            raise ValidationError(f"tau2 must be nonnegative, got {self.tau2}")
        if not isinstance(self.censor, _BOOLS):
            raise ValidationError(f"censor must be a bool, got {self.censor!r}")
        object.__setattr__(self, "censor", bool(self.censor))
        if self.censor:
            if self.ct is None or isinstance(self.ct, _BOOLS) or not 0 < self.ct < math.inf:
                raise ValidationError(
                    f"ct must be a positive finite censoring time when censor=True, got {self.ct}"
                )
        elif self.ct is not None:
            raise ValidationError(f"ct is only used with censor=True, got ct={self.ct}")


def _require_number(name: str, value) -> None:
    if isinstance(value, _BOOLS) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")


def _require_finite(params, names) -> None:
    for name in names:
        value = getattr(params, name)
        _require_number(name, value)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PilotRecord:
    """One animal from a pilot experiment."""

    id: str
    y: float
    tx: int
    status: Optional[int] = None


@dataclass(frozen=True)
class PilotDataset:
    """A pilot dataset of animals with line id, outcome, arm, and an
    optional event indicator (1 = event observed, 0 = censored).

    Every Y must be a positive, finite number, Tx and status (or None)
    integers 0 or 1, not bools. Line ids are strings compared by equality.
    """

    rows: Tuple[PilotRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValidationError("pilot dataset has no data rows")
        for k, r in enumerate(self.rows, start=1):
            if not isinstance(r.id, str):
                raise ValidationError(f"line id must be a string at row {k} (got {r.id!r})")
            _require_number(f"Y at row {k}", r.y)
            if not 0 < r.y < math.inf:
                raise ValidationError(f"Y must be positive and finite at row {k} (got {r.y})")
            if not (_is_integer(r.tx) and r.tx in (0, 1)):
                raise ValidationError(f"Tx must be 0 or 1 at row {k} (got {r.tx!r})")
            if r.status is not None and not (_is_integer(r.status) and r.status in (0, 1)):
                raise ValidationError(f"status must be 0 or 1 at row {k} (got {r.status!r})")
        ids = {r.id for r in self.rows}
        if len(ids) < 2:
            raise ValidationError("pilot dataset must contain at least 2 distinct line ids")
        arms = {r.tx for r in self.rows}
        if arms != {0, 1}:
            raise ValidationError("pilot dataset must contain both treatment arms")

    @property
    def has_status(self) -> bool:
        return all(r.status is not None for r in self.rows)

    def line_ids(self) -> Tuple[str, ...]:
        """Distinct line ids in order of first appearance."""
        seen: dict = {}
        for r in self.rows:
            seen.setdefault(r.id, None)
        return tuple(seen)


@dataclass(frozen=True)
class PowerRow:
    """One grid cell of a power table. Percentages carry full precision;
    rounding happens only at display time."""

    n: int
    m: int
    total_animals: int
    power: float
    convergence: float
    censoring: Optional[float] = None

    def __post_init__(self):
        for name in ("n", "m", "total_animals"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.total_animals != 2 * self.n * self.m:
            raise ValidationError(
                f"total_animals must equal 2*n*m = {2 * self.n * self.m}, got {self.total_animals}"
            )
        for name in ("power", "convergence", "censoring"):
            value = getattr(self, name)
            if name == "censoring" and value is None:
                continue
            # false for nan as well
            if isinstance(value, _BOOLS) or not 0.0 <= value <= 100.0:
                raise ValidationError(f"{name} must lie in [0,100], got {value}")


@dataclass(frozen=True)
class PowerTable:
    """Per-(n, m) power estimates plus an echo of the generating setup.

    Rows are ordered by n then m, one row per grid cell. ``params`` is the
    generating model's parameter container, which also names the model.
    ``sim``, ``alpha`` and ``seed`` must pass the checks a DesignGrid's do.
    """

    rows: Tuple[PowerRow, ...]
    params: Union[AnovaParams, FrailtyParams]
    sim: int
    alpha: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        _check_run_settings(self.sim, self.alpha, self.seed)
        cells = [(r.n, r.m) for r in self.rows]
        if sorted(cells) != cells or len(set(cells)) != len(cells):
            raise ValidationError("rows must be unique and ordered by n then m")
        # the CSV has a censoring column for every row or for none
        with_censoring = {r.censoring is not None for r in self.rows}
        if len(with_censoring) > 1:
            raise ValidationError("rows must all carry censoring or none may")
        if True in with_censoring and isinstance(self.params, AnovaParams):
            raise ValidationError("an AnovaParams table carries no censoring")

    @property
    def has_censoring(self) -> bool:
        return any(r.censoring is not None for r in self.rows)

    def cell(self, n: int, m: int) -> PowerRow:
        for r in self.rows:
            if r.n == n and r.m == m:
                return r
        raise KeyError(f"no cell ({n}, {m}) in table")


# bools are flags: a flag field accepts only these, and a number or count refuses them
_BOOLS = (bool, np.bool_)


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bools are flags, not counts."""
    return isinstance(value, Integral) and not isinstance(value, _BOOLS)


def validate_grid(grid: DesignGrid) -> DesignGrid:
    """Check every DesignGrid invariant, returning the grid unchanged.

    Raises ValidationError naming the offending field otherwise. DesignGrid
    calls this at construction, so every DesignGrid already passes it.
    """
    for name, vals, least in (("n_values", grid.n_values, 2), ("m_values", grid.m_values, 1)):
        if not vals:
            raise ValidationError(f"{name} must be nonempty")
        for v in vals:
            if not _is_integer(v):
                raise ValidationError(f"{name} entries must be integers, got {v!r}")
            if v < least:
                raise ValidationError(f"{name} entries must be at least {least}, got {v}")
        if len(set(vals)) != len(vals):
            raise ValidationError(f"{name} must be duplicate-free")
        if list(vals) != sorted(vals):
            raise ValidationError(f"{name} must be ascending")
    _check_run_settings(grid.sim, grid.alpha, grid.seed)
    return grid


def _check_run_settings(sim, alpha, seed) -> None:
    """Check the replicates per cell, test level and master seed of a run."""
    for name, value in (("sim", sim), ("seed", seed)):
        if not _is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if sim < 1:
        raise ValidationError(f"sim must be at least 1, got {sim}")
    _check_alpha(alpha)
    if not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _check_alpha(alpha) -> None:
    """Check a test level, for a run and for every Wald test's critical value."""
    if not (isinstance(alpha, Real) and 0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
