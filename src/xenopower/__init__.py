"""Simulation-based power analysis for xenograft experiments.

Determines how many tumor lines (n) and animals per line per arm (m) a
mixed crossed/nested animal experiment needs to reach a target power, for
log-normal outcomes (random-intercept ANOVA analysis) and right-censored
time-to-event outcomes (Weibull model with normal frailty).
"""

from .datagen import SimulatedDataset, gen_anova, gen_frailty, replicate_stream
from .elicit import (
    elicit_anova_from_medians,
    elicit_anova_from_pilot,
    elicit_frailty_from_medians,
    elicit_frailty_from_pilot,
)
from .engine import EngineError, PowerJob, minimal_designs, run_power_grid
from .frailty import FrailtyFit, fit_frailty, frailty_loglik, wald_test_frailty
from .io import (
    read_pilot_csv,
    read_power_csv,
    read_power_json,
    write_power_csv,
    write_power_json,
)
from .lmm import LmmFit, fit_lmm, wald_test_lmm
from .plot import render_power_plot
from .types import (
    AnovaParams,
    DesignGrid,
    FrailtyParams,
    PilotDataset,
    PilotRecord,
    PowerRow,
    PowerTable,
    ValidationError,
    validate_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AnovaParams",
    "DesignGrid",
    "EngineError",
    "FrailtyFit",
    "FrailtyParams",
    "LmmFit",
    "PilotDataset",
    "PilotRecord",
    "PowerJob",
    "PowerRow",
    "PowerTable",
    "SimulatedDataset",
    "ValidationError",
    "elicit_anova_from_medians",
    "elicit_anova_from_pilot",
    "elicit_frailty_from_medians",
    "elicit_frailty_from_pilot",
    "fit_frailty",
    "fit_lmm",
    "frailty_loglik",
    "gen_anova",
    "gen_frailty",
    "minimal_designs",
    "read_pilot_csv",
    "read_power_csv",
    "read_power_json",
    "render_power_plot",
    "replicate_stream",
    "run_power_grid",
    "validate_grid",
    "wald_test_frailty",
    "wald_test_lmm",
    "write_power_csv",
    "write_power_json",
]
