"""Random-intercept mixed ANOVA fit by restricted maximum likelihood.

The model for a positive outcome Y is

    log Y = beta0 + tx*beta + a_line + eps,   a_line ~ N(0, tau2),
                                              eps    ~ N(0, sigma2).

For a fixed variance ratio theta = tau2/sigma2 the fixed effects and
sigma2 have closed forms, so the restricted likelihood is profiled down
to the single parameter theta. Under balance (every line with the same
number of animals, half of them treated) the treatment contrast is
orthogonal to the lines and the REML theta is the ANOVA mean-squares
estimate (Searle, Casella & McCulloch, Variance Components, 1992, ch. 4),
so simulated designs get it in closed form. Both paths read the design
record, whose tx is checked to be 0/1, and one container of sums of
log y. Every line of a balanced design has the same weight in the
profile, so its fit needs only the line and arm counts and four running
sums (sum log y, sum (log y)^2, sum tx*log y and the sum of squared line
totals of log y), then scalar arithmetic; the engine decides a stack of
simulated datasets at once by the same rules. Unbalanced data, such as a
pilot with a lost animal, get the general per-line profile and a bounded
one-dimensional search over log theta, with the boundary theta = 0
always evaluated as a candidate; that path is also the reference the
balanced one is tested against. Either way tau2_hat = 0 is a legal
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from ._data import Design, as_arrays

__all__ = ["LmmFit", "fit_lmm", "wald_test_lmm"]

_THETA_LO = 1e-8
_THETA_HI = 1e6
_LOG_THETA_LO = math.log(_THETA_LO)
_LOG_THETA_HI = math.log(_THETA_HI)
_XATOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


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


# the one value every failing exit of fit_lmm returns
_NOT_CONVERGED = LmmFit(beta0_hat=math.nan, beta_hat=math.nan, se_beta=math.nan,
                        tau2_hat=math.nan, sigma2_hat=math.nan, df=math.nan,
                        p_value=math.nan, converged=False, log_restricted_likelihood=-math.inf)


class _Sufficient:
    """Everything either REML path needs of one dataset: its design record
    and the sums of its log outcomes (per line, in all, of squares and
    against tx)."""

    __slots__ = ("design", "sy", "Sy", "Syy", "Sxy")

    def __init__(self, design: Design, logy: np.ndarray):
        self.design = design
        self.sy = np.bincount(design.codes, weights=logy, minlength=design.k)
        self.Sy = float(logy.sum())
        self.Syy = float(logy @ logy)
        self.Sxy = float(design.tx @ logy)


def _profile(theta: float, st: _Sufficient):
    """Evaluate the profiled REML criterion at variance ratio theta.

    Returns (-2 * restricted log-likelihood, beta0, beta, sigma2, var_beta).
    """
    design = st.design
    N, ni, sx, Sx = design.codes.size, design.sizes, design.sx, design.Sx
    ci = theta / (1.0 + theta * ni)
    a00 = N - float(ci @ (ni * ni))
    a01 = Sx - float(ci @ (ni * sx))
    # sum tx^2 = sum tx for 0/1 coding
    a11 = Sx - float(ci @ (sx * sx))
    b0 = st.Sy - float(ci @ (ni * st.sy))
    b1 = st.Sxy - float(ci @ (sx * st.sy))
    ytwy = st.Syy - float(ci @ (st.sy * st.sy))
    logdet_v0 = float(np.sum(np.log1p(theta * ni)))
    return _solve(a00, a01, a11, b0, b1, ytwy, logdet_v0, N, st.Syy)


def _solve(a00, a01, a11, b0, b1, ytwy, logdet_v0, N, Syy):
    """The profiled criterion from the V0-weighted cross-products of
    X = [1, tx] and log y (a = X'WX, b = X'Wy, ytwy = y'Wy with
    W = V0^-1), as _profile returns it."""
    det = a00 * a11 - a01 * a01
    if not det > 0:
        return math.inf, math.nan, math.nan, math.nan, math.nan
    beta0 = (a11 * b0 - a01 * b1) / det
    beta = (a00 * b1 - a01 * b0) / det
    rss = ytwy - (b0 * beta0 + b1 * beta)
    dof = N - 2
    sigma2 = rss / dof
    # a residual within rounding of the sums is an exact fit, sigma2 = 0
    if not rss > N * _EPS * Syy or not math.isfinite(sigma2):
        return math.inf, math.nan, math.nan, math.nan, math.nan
    neg2ll = dof * (math.log(2.0 * math.pi * sigma2) + 1.0) + logdet_v0 + math.log(det)
    var_beta = sigma2 * a00 / det
    return neg2ll, beta0, beta, sigma2, var_beta


def _balanced_fit(st: _Sufficient):
    """(theta, _profile at theta) for a balanced design, or None when the
    design is not balanced: k lines of J animals each, tx summing to J/2
    in every line (half of each line treated).

    theta is the ANOVA mean-squares estimate, clamped to the search's
    range. Every line has the same weight c = theta/(1 + theta*J) in the
    profile, so each per-line dot product of _profile is c times a sum.
    """
    N, k, J = st.design.codes.size, st.design.k, st.design.J
    if J is None:
        return None
    Sy, Syy, Sxy = st.Sy, st.Syy, st.Sxy
    Q = float(st.sy @ st.sy)  # sum over lines of the squared line total of log y
    ssl = Q / J
    # within-line spread of 0/1 tx around its line mean of 1/2
    sxx_w = N / 4.0
    msw = (Syy - ssl - (Sxy - Sy / 2.0) ** 2 / sxx_w) / (N - k - 1)
    msb = (ssl - Sy * Sy / N) / (k - 1)
    theta = (msb - msw) / (J * msw) if msw > 0 else _THETA_HI
    theta = 0.0 if theta <= _THETA_LO else min(theta, _THETA_HI)
    d = 1.0 + theta * J
    c = theta / d
    cJ = c * J
    # 1 - cJ = 1/d, which cancels when formed as a difference at large theta
    a00 = N / d
    a11 = N / 2.0 - cJ * N / 4.0
    b0 = Sy / d
    b1 = Sxy - cJ * Sy / 2.0
    ytwy = Syy - c * Q
    logdet_v0 = k * math.log1p(theta * J)
    return theta, _solve(a00, 0.5 * a00, a11, b0, b1, ytwy, logdet_v0, N, Syy)


def _balanced_tests(y: np.ndarray, design: Design, alpha: float):
    """(rejected, converged, p_value) of fit_lmm and wald_test_lmm for
    each row of y, an (R, N) stack of outcomes on one balanced design whose
    lines are contiguous blocks of J animals (as datagen lays them out).
    A row that does not converge has p_value nan and is not rejected.

    Row by row this is _balanced_fit in its ANOVA form, which does not
    cancel at a large theta: the within-line SS W, the between-line SS B
    and the arm contrast D = sum (tx - 1/2) log y give theta by the same
    rules, rss = W + B/(1 + theta*J), beta_hat = 4D/N and
    var(beta_hat) = 4 sigma2/N. A row converges by _solve's rules; a row
    that as_arrays would refuse (an outcome of 0 or inf) has an infinite
    sum of squares, so it converges by none.
    """
    R, N = y.shape
    k, J = design.k, int(design.J)
    df = N - k - 1
    with np.errstate(all="ignore"):
        logy = np.log(y)
        Sy = logy.sum(axis=1)
        Syy = np.einsum("ij,ij->i", logy, logy)
        lines = logy.reshape(R, k, J).sum(axis=2)
        ssl = np.einsum("ij,ij->i", lines, lines) / J
        D = logy @ (design.tx - 0.5)
        W = Syy - ssl - D * D / (N / 4.0)
        B = ssl - Sy * Sy / N
        msw = W / df
        theta = np.where(msw > 0, (B / (k - 1) - msw) / (J * msw), _THETA_HI)
        theta = np.where(theta <= _THETA_LO, 0.0, np.minimum(theta, _THETA_HI))
        rss = W + B / (1.0 + theta * J)
        var_beta = 4.0 * (rss / (N - 2)) / N
        converged = (rss > N * _EPS * Syy) & np.isfinite(var_beta) & (var_beta > 0)
        p = np.where(converged, 2.0 * stdtr(df, -np.abs(4.0 * D / N / np.sqrt(var_beta))),
                     np.nan)
        rejected = p < alpha
    return rejected, converged, p


def fit_lmm(data) -> LmmFit:
    """Fit the random-intercept model to a dataset by REML and compute the
    two-sided test of zero treatment effect.

    The log of each outcome is taken internally, and beta_hat/se is
    referred to a Student-t distribution with df = N - lines - 1. Data
    that as_arrays refuses (an outcome of 0, inf or nan among them), fewer
    than 3 observations or no residual degree of freedom
    (N - lines - 1 < 1) raise ValueError.
    """
    design, y, _status = as_arrays(data)
    if y.size < 3:
        raise ValueError("fit requires at least 3 observations")
    df = float(y.size - design.k - 1)
    if df < 1:
        raise ValueError(f"fit requires more observations than lines + 1, got {y.size} "
                         f"observations in {design.k} lines")

    st = _Sufficient(design, np.log(y))
    balanced = _balanced_fit(st)
    if balanced is not None:
        theta, (neg2, beta0, beta, sigma2, var_beta) = balanced
    else:
        # only unbalanced data (a pilot with a lost animal) pay for this import
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda lt: _profile(math.exp(lt), st)[0],
            bounds=(_LOG_THETA_LO, _LOG_THETA_HI),
            method="bounded",
            options={"xatol": _XATOL},
        )
        if not res.success:
            return _NOT_CONVERGED
        theta = math.exp(res.x) if res.fun < _profile(0.0, st)[0] else 0.0
        if theta <= _THETA_LO:
            theta = 0.0
        neg2, beta0, beta, sigma2, var_beta = _profile(theta, st)
    if not (math.isfinite(neg2) and var_beta > 0):
        return _NOT_CONVERGED
    se = math.sqrt(var_beta)
    p = 2.0 * float(stdtr(df, -abs(beta / se)))
    return LmmFit(
        beta0_hat=float(beta0),
        beta_hat=float(beta),
        se_beta=float(se),
        tau2_hat=float(theta * sigma2),
        sigma2_hat=float(sigma2),
        df=df,
        p_value=p,
        converged=True,
        log_restricted_likelihood=-0.5 * neg2,
    )


def wald_test_lmm(fit: LmmFit, alpha: float) -> bool:
    """True when the fit rejects H0: beta = 0 at level alpha."""
    if not fit.converged:
        raise ValueError("cannot test a non-converged fit")
    return fit.p_value < alpha
