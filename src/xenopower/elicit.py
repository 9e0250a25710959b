"""Turn pilot data or median-survival assumptions into simulation
parameters.

Both median-based paths use the sign convention beta = log(ctl/tx): a
treatment that lengthens survival gets a negative beta. Two-sided Wald
power is invariant to this sign, and the convention keeps elicited values
aligned with the fitted-model reports.
"""

from __future__ import annotations

import math
from typing import Optional

from .frailty import _LOG_FLOAT_MAX, _LOG_FLOAT_MIN, fit_frailty
from .lmm import fit_lmm
from .types import AnovaParams, FrailtyParams, PilotDataset, ValidationError, _require_number

__all__ = [
    "elicit_anova_from_pilot",
    "elicit_anova_from_medians",
    "elicit_frailty_from_pilot",
    "elicit_frailty_from_medians",
]


def _check_medians(ctl_med: float, tx_med: float) -> None:
    _require_number("ctl_med", ctl_med)
    _require_number("tx_med", tx_med)
    if not (0 < ctl_med < math.inf and 0 < tx_med < math.inf):
        raise ValidationError(
            f"median survival times must be positive and finite, got {ctl_med} and {tx_med}"
        )


def elicit_anova_from_pilot(data: PilotDataset) -> AnovaParams:
    """Fit the random-intercept model on log(Y) and return its estimates
    as generating parameters.

    The pilot must be uncensored: a status column, if present, has to be
    all ones.
    """
    if any(r.status == 0 for r in data.rows):
        raise ValidationError(
            "pilot data contains censored records; the log-normal path requires uncensored outcomes"
        )
    fit = fit_lmm(data)
    if not fit.converged:
        raise ValueError("REML fit did not converge on the pilot data")
    return AnovaParams(
        beta0=fit.beta0_hat, beta=fit.beta_hat, tau2=fit.tau2_hat, sigma2=fit.sigma2_hat
    )


def elicit_anova_from_medians(
    ctl_med: float, tx_med: float, icc: float = 0.1, sigma2: float = 1.0
) -> AnovaParams:
    """Map assumed arm medians, intra-line correlation, and residual
    variance to log-normal model parameters.

    beta = log(ctl_med) - log(tx_med); tau2 = sigma2 * icc/(1 - icc);
    beta0 = log(ctl_med), so the simulated control arm has the stated
    median.
    """
    _check_medians(ctl_med, tx_med)
    if not 0.0 <= icc < 1.0:
        raise ValidationError(f"icc must lie in [0, 1), got {icc}")
    if not 0 < sigma2 < math.inf:
        raise ValidationError(f"sigma2 must be positive and finite, got {sigma2}")
    return AnovaParams(
        beta0=math.log(ctl_med),
        beta=math.log(ctl_med) - math.log(tx_med),
        tau2=sigma2 * icc / (1.0 - icc),
        sigma2=sigma2,
    )


def elicit_frailty_from_pilot(
    data: PilotDataset, *, censor: bool = False, ct: Optional[float] = None
) -> FrailtyParams:
    """Fit the Weibull frailty model on a censored pilot and return its
    estimates as generating parameters.

    The censoring plan for the simulated experiments (censor, ct) is the
    caller's choice; it is carried into the returned parameters.
    """
    if not data.has_status:
        raise ValidationError("pilot data must carry a status column for the censored-data path")
    if not any(r.status == 1 for r in data.rows):
        raise ValidationError("pilot data contains no observed events")
    fit = fit_frailty(data)
    if not fit.converged:
        raise ValueError("frailty fit did not converge on the pilot data")
    return FrailtyParams(
        lam=fit.lambda_hat,
        nu=fit.nu_hat,
        beta=fit.beta_hat,
        tau2=fit.tau2_hat,
        censor=censor,
        ct=ct,
    )


def elicit_frailty_from_medians(
    ctl_med: float,
    tx_med: float,
    nu: float = 1.0,
    tau2: float = 0.1,
    *,
    censor: bool = False,
    ct: Optional[float] = None,
) -> FrailtyParams:
    """Map assumed arm medians and Weibull shape to frailty-model
    parameters.

    Under proportional hazards the median ratio implies
    beta = nu * (log(ctl_med) - log(tx_med)), and the scale is calibrated
    so the zero-frailty control median equals ctl_med:
    lam = log(2) / ctl_med**nu, which must be a positive normal float.
    """
    _check_medians(ctl_med, tx_med)
    if not 0 < nu < math.inf:
        raise ValidationError(f"nu must be positive and finite, got {nu}")
    # checked in log space, where ctl_med**nu cannot overflow or underflow
    log_lam = math.log(math.log(2.0)) - nu * math.log(ctl_med)
    if not _LOG_FLOAT_MIN < log_lam < _LOG_FLOAT_MAX:
        raise ValidationError(
            f"ctl_med = {ctl_med} and nu = {nu} put lam = log(2)/ctl_med**nu "
            f"= exp({log_lam:.6g}) outside the float range"
        )
    return FrailtyParams(
        lam=math.log(2.0) / ctl_med**nu,
        nu=nu,
        beta=nu * (math.log(ctl_med) - math.log(tx_med)),
        tau2=tau2,
        censor=censor,
        ct=ct,
    )
