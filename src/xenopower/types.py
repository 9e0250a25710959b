"""Shared domain types for the xenograft power-analysis toolkit.

All containers here are immutable after construction and safe to share
across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

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
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "m_values", tuple(int(v) for v in self.m_values))
        validate_grid(self)


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
        if not self.tau2 >= 0:
            raise ValidationError(f"tau2 must be nonnegative, got {self.tau2}")
        if not self.sigma2 > 0:
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
    a ~ N(0, tau2) per line. When ``censor`` is set, outcomes are
    administratively censored at time ``ct``.
    """

    lam: float
    nu: float
    beta: float
    tau2: float
    censor: bool = False
    ct: Optional[float] = None

    def __post_init__(self):
        if not self.lam > 0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
        if not self.nu > 0:
            raise ValidationError(f"nu must be positive, got {self.nu}")
        if not self.tau2 >= 0:
            raise ValidationError(f"tau2 must be nonnegative, got {self.tau2}")
        if self.censor:
            if self.ct is None or not self.ct > 0:
                raise ValidationError(
                    f"ct must be a positive censoring time when censor=True, got {self.ct}"
                )


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

    Line identifiers are opaque strings compared by equality.
    """

    rows: Tuple[PilotRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValidationError("pilot dataset has no data rows")
        for k, r in enumerate(self.rows, start=1):
            if not r.y > 0:
                raise ValidationError(f"Y must be positive at row {k} (got {r.y})")
            if r.tx not in (0, 1):
                raise ValidationError(f"Tx must be 0 or 1 at row {k} (got {r.tx})")
            if r.status is not None and r.status not in (0, 1):
                raise ValidationError(f"status must be 0 or 1 at row {k} (got {r.status})")
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
        if self.total_animals != 2 * self.n * self.m:
            raise ValidationError(
                f"total_animals must equal 2*n*m = {2 * self.n * self.m}, got {self.total_animals}"
            )
        if not 0.0 <= self.power <= 100.0:
            raise ValidationError(f"power must lie in [0,100], got {self.power}")


@dataclass(frozen=True)
class PowerTable:
    """Per-(n, m) power estimates plus an echo of the generating setup.

    Rows are ordered by n then m, one row per grid cell. ``model`` is
    "anova" or "frailty" and ``params`` the matching parameter container.
    """

    rows: Tuple[PowerRow, ...]
    model: str
    params: Union[AnovaParams, FrailtyParams]
    sim: int
    alpha: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.model not in ("anova", "frailty"):
            raise ValidationError(f"model must be 'anova' or 'frailty', got {self.model!r}")
        cells = [(r.n, r.m) for r in self.rows]
        if sorted(cells) != cells or len(set(cells)) != len(cells):
            raise ValidationError("rows must be unique and ordered by n then m")

    @property
    def has_censoring(self) -> bool:
        return any(r.censoring is not None for r in self.rows)

    def cell(self, n: int, m: int) -> PowerRow:
        for r in self.rows:
            if r.n == n and r.m == m:
                return r
        raise KeyError(f"no cell ({n}, {m}) in table")


def validate_grid(grid: DesignGrid) -> DesignGrid:
    """Check every DesignGrid invariant, returning the grid unchanged.

    Raises ValidationError naming the offending field otherwise. DesignGrid
    calls this at construction, so every DesignGrid already passes it.
    """
    if not grid.n_values:
        raise ValidationError("n_values must be nonempty")
    if not grid.m_values:
        raise ValidationError("m_values must be nonempty")
    for v in grid.n_values:
        if v < 2:
            raise ValidationError(f"n_values entries must be at least 2, got {v}")
    for v in grid.m_values:
        if v < 1:
            raise ValidationError(f"m_values entries must be at least 1, got {v}")
    for name, vals in (("n_values", grid.n_values), ("m_values", grid.m_values)):
        if len(set(vals)) != len(vals):
            raise ValidationError(f"{name} must be duplicate-free")
        if list(vals) != sorted(vals):
            raise ValidationError(f"{name} must be ascending")
    if grid.sim < 1:
        raise ValidationError(f"sim must be at least 1, got {grid.sim}")
    if not 0.0 < grid.alpha < 1.0:
        raise ValidationError("alpha must lie strictly between 0 and 1")
    if not 0 <= int(grid.seed) < 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {grid.seed}")
    return grid
