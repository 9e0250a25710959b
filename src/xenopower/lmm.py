"""Random-intercept mixed ANOVA fit by restricted maximum likelihood.

The model for a positive outcome Y is

    log Y = beta0 + tx*beta + a_line + eps,   a_line ~ N(0, tau2),
                                              eps    ~ N(0, sigma2).

For a fixed variance ratio theta = tau2/sigma2 the fixed effects and
sigma2 have closed forms, so the restricted likelihood is profiled down
to a one-dimensional search over log theta. The boundary theta = 0 is
always evaluated as a candidate, making tau2_hat = 0 a legal estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import t as t_dist

from ._data import as_arrays

__all__ = ["LmmFit", "fit_lmm", "wald_test_lmm"]

_LOG_THETA_LO = math.log(1e-8)
_LOG_THETA_HI = math.log(1e6)
_XATOL = 1e-10


@dataclass(frozen=True)
class LmmFit:
    """REML estimates and the Wald test ingredients for one dataset."""

    beta0_hat: float
    beta_hat: float
    se_beta: float
    tau2_hat: float
    sigma2_hat: float
    df: float
    p_value: float
    converged: bool
    log_restricted_likelihood: float


class _Sufficient:
    """Per-line aggregates; everything the profiled criterion needs."""

    __slots__ = ("N", "k", "ni", "sx", "sy", "Sx", "Sxx", "Sy", "Syy", "Sxy")

    def __init__(self, codes: np.ndarray, tx: np.ndarray, logy: np.ndarray):
        k = int(codes.max()) + 1
        self.N = logy.size
        self.k = k
        self.ni = np.bincount(codes, minlength=k).astype(np.float64)
        self.sx = np.bincount(codes, weights=tx, minlength=k)
        self.sy = np.bincount(codes, weights=logy, minlength=k)
        self.Sx = float(tx.sum())
        self.Sxx = float(tx @ tx)
        self.Sy = float(logy.sum())
        self.Syy = float(logy @ logy)
        self.Sxy = float(tx @ logy)


def _profile(theta: float, st: _Sufficient):
    """Evaluate the profiled REML criterion at variance ratio theta.

    Returns (-2 * restricted log-likelihood, beta0, beta, sigma2, var_beta).
    """
    ci = theta / (1.0 + theta * st.ni)
    a00 = st.N - float(ci @ (st.ni * st.ni))
    a01 = st.Sx - float(ci @ (st.ni * st.sx))
    a11 = st.Sxx - float(ci @ (st.sx * st.sx))
    b0 = st.Sy - float(ci @ (st.ni * st.sy))
    b1 = st.Sxy - float(ci @ (st.sx * st.sy))
    ytwy = st.Syy - float(ci @ (st.sy * st.sy))
    det = a00 * a11 - a01 * a01
    if not det > 0:
        return math.inf, math.nan, math.nan, math.nan, math.nan
    beta0 = (a11 * b0 - a01 * b1) / det
    beta = (a00 * b1 - a01 * b0) / det
    rss = ytwy - (b0 * beta0 + b1 * beta)
    dof = st.N - 2
    sigma2 = rss / dof
    if not sigma2 > 0 or not math.isfinite(sigma2):
        return math.inf, math.nan, math.nan, math.nan, math.nan
    logdet_v0 = float(np.sum(np.log1p(theta * st.ni)))
    neg2ll = dof * (math.log(2.0 * math.pi * sigma2) + 1.0) + logdet_v0 + math.log(det)
    var_beta = sigma2 * a00 / det
    return neg2ll, beta0, beta, sigma2, var_beta


def fit_lmm(data) -> LmmFit:
    """Fit the random-intercept model to a dataset by REML and compute the
    two-sided test of zero treatment effect.

    Outcomes are supplied on the raw positive scale; the log is taken
    internally. The test statistic beta_hat/se is referred to a Student-t
    distribution with df = N - lines - 1.
    """
    codes, tx, y, _status = as_arrays(data)
    if np.unique(codes).size < 2:
        raise ValueError("fit requires at least 2 distinct lines")
    if y.size < 3:
        raise ValueError("fit requires at least 3 observations")
    if np.any(y <= 0):
        raise ValueError("all outcomes must be positive")
    if np.unique(tx).size < 2:
        raise ValueError("both treatment arms must be present")

    st = _Sufficient(codes, tx, np.log(y))
    res = minimize_scalar(
        lambda lt: _profile(math.exp(lt), st)[0],
        bounds=(_LOG_THETA_LO, _LOG_THETA_HI),
        method="bounded",
        options={"xatol": _XATOL},
    )
    neg2_zero = _profile(0.0, st)[0]
    converged = bool(res.success) and (math.isfinite(res.fun) or math.isfinite(neg2_zero))
    theta = math.exp(res.x) if res.fun < neg2_zero else 0.0
    if theta <= 1e-8:
        theta = 0.0
    neg2, beta0, beta, sigma2, var_beta = _profile(theta, st)
    if not (math.isfinite(neg2) and var_beta > 0):
        return LmmFit(
            beta0_hat=math.nan,
            beta_hat=math.nan,
            se_beta=math.nan,
            tau2_hat=math.nan,
            sigma2_hat=math.nan,
            df=float(st.N - st.k - 1),
            p_value=math.nan,
            converged=False,
            log_restricted_likelihood=-math.inf,
        )
    se = math.sqrt(var_beta)
    df = float(st.N - st.k - 1)
    p = 2.0 * float(t_dist.sf(abs(beta / se), df))
    return LmmFit(
        beta0_hat=float(beta0),
        beta_hat=float(beta),
        se_beta=float(se),
        tau2_hat=float(theta * sigma2),
        sigma2_hat=float(sigma2),
        df=df,
        p_value=p,
        converged=converged,
        log_restricted_likelihood=-0.5 * neg2,
    )


def wald_test_lmm(fit: LmmFit, alpha: float) -> bool:
    """True when the fit rejects H0: beta = 0 at level alpha."""
    if not fit.converged:
        raise ValueError("cannot test a non-converged fit")
    return fit.p_value < alpha


def restricted_loglik_at(data, theta: float) -> float:
    """Restricted log-likelihood profiled at a fixed variance ratio theta.

    Exposed for cross-checks against independent grid searches.
    """
    codes, tx, y, _status = as_arrays(data)
    st = _Sufficient(codes, tx, np.log(y))
    return -0.5 * _profile(theta, st)[0]
