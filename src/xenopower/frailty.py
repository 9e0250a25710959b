"""Weibull proportional-hazards fit with a normal per-line frailty.

The conditional hazard for an animal in line i is

    h(t) = lam * nu * t**(nu-1) * exp(tx*beta + a_i),   a_i ~ N(0, tau2),

and the marginal likelihood integrates the per-line product of Weibull
densities/survivals over the frailty. Each line integral is evaluated by
adaptive Gauss-Hermite quadrature: the integrand's mode is located by
Newton steps on a strictly concave function, the nodes are recentered and
rescaled by the curvature there, and the sum is accumulated in log space.

Maximization runs over (log lam, log nu, beta, log tau) with quasi-Newton
iterations and finite-difference gradients; tau has an effective floor at
1e-5, below which the likelihood degenerates to the no-frailty model and
the fit reports tau2_hat = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

from ._data import as_arrays

__all__ = ["FrailtyFit", "frailty_loglik", "fit_frailty", "wald_test_frailty"]

_TAU_FLOOR = 1e-5
_TAU2_BOUNDARY = 1e-8
_HESS_STEP = 1e-4
_MAX_ITER = 500
_QUAD_TOL = 1e-4
_QUAD_POINTS = 15


@dataclass(frozen=True)
class FrailtyFit:
    """Maximum marginal-likelihood estimates and Wald test ingredients."""

    lambda_hat: float
    nu_hat: float
    beta_hat: float
    se_beta: float
    tau2_hat: float
    p_value: float
    converged: bool
    log_likelihood: float


@lru_cache(maxsize=8)
def _hermite_nodes(quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes x and log(w * exp(x^2)); cached, read-only."""
    x, w = np.polynomial.hermite.hermgauss(quad_points)
    logw = np.log(w) + x * x
    x.setflags(write=False)
    logw.setflags(write=False)
    return x, logw


class _GroupData:
    """Precomputed per-dataset quantities reused across likelihood calls."""

    __slots__ = ("codes", "k", "logy", "tx", "delta", "d", "sum_dlogy", "sum_dtx", "n_events")

    def __init__(self, codes: np.ndarray, tx: np.ndarray, y: np.ndarray, delta: np.ndarray):
        self.codes = codes
        self.k = int(codes.max()) + 1
        self.logy = np.log(y)
        self.tx = tx
        self.delta = delta
        self.d = np.bincount(codes, weights=delta, minlength=self.k)
        self.sum_dlogy = float(delta @ self.logy)
        self.sum_dtx = float(delta @ tx)
        self.n_events = float(delta.sum())


def _loglik_core(p: np.ndarray, gd: _GroupData, x: np.ndarray, logw: np.ndarray) -> float:
    """Marginal log-likelihood at transformed parameters
    p = (log lam, log nu, beta, log tau)."""
    loglam, lognu, beta = p[0], p[1], p[2]
    nu = math.exp(lognu)
    tau = math.exp(p[3])
    tau2 = tau * tau

    with np.errstate(over="ignore", invalid="ignore"):
        cum = np.exp(loglam + nu * gd.logy + beta * gd.tx)
        if not np.all(np.isfinite(cum)):
            return -math.inf
        k_total = (
            gd.n_events * (loglam + lognu) + (nu - 1.0) * gd.sum_dlogy + beta * gd.sum_dtx
        )
        if tau2 < _TAU_FLOOR * _TAU_FLOOR:
            # floor: the frailty collapses and the likelihood is flat in log tau
            return float(k_total - cum.sum())

        a_cum = np.bincount(gd.codes, weights=cum, minlength=gd.k)
        mode = _integrand_modes(gd.d, a_cum, tau2)
        if mode is None:
            return -math.inf
        scale = 1.0 / np.sqrt(1.0 / tau2 + a_cum * np.exp(mode))
        nodes = mode[:, None] + math.sqrt(2.0) * scale[:, None] * x[None, :]
        g = (
            -nodes * nodes / (2.0 * tau2)
            + gd.d[:, None] * nodes
            - a_cum[:, None] * np.exp(nodes)
        )
        lw = logw[None, :] + g
        mx = lw.max(axis=1)
        line_ints = (
            np.log(scale)
            - 0.5 * math.log(math.pi * tau2)
            + mx
            + np.log(np.exp(lw - mx[:, None]).sum(axis=1))
        )
        total = k_total + line_ints.sum()
    return float(total) if math.isfinite(total) else -math.inf


def _integrand_modes(d: np.ndarray, a_cum: np.ndarray, tau2: float):
    """Per-line maximizers of -a^2/(2 tau2) + d*a - A*exp(a).

    The objective is strictly concave, so damped Newton converges from a
    start below the root; returns None if the search fails to settle.
    """
    a = np.minimum(0.0, np.log(np.maximum(d, 0.5) / a_cum))
    for _ in range(100):
        ea = np.exp(a)
        grad = -a / tau2 + d - a_cum * ea
        curv = -1.0 / tau2 - a_cum * ea
        step = np.clip(grad / curv, -4.0, 4.0)
        a = a - step
        if np.max(np.abs(step)) < 1e-10:
            break
    else:
        return None
    if not np.all(np.isfinite(a)):
        return None
    return a


def frailty_loglik(params, data, quad_points: int = _QUAD_POINTS) -> float:
    """Marginal log-likelihood of (lam, nu, beta, tau2) for a censored
    dataset, by adaptive Gauss-Hermite quadrature over the frailty.

    ``params`` is the tuple (lam, nu, beta, tau2); tau2 = 0 short-circuits
    to the no-frailty log-likelihood.
    """
    lam, nu, beta, tau2 = (float(v) for v in params)
    if lam <= 0 or nu <= 0:
        raise ValueError("lam and nu must be positive")
    if tau2 < 0:
        raise ValueError("tau2 must be nonnegative")
    codes, tx, y, status = as_arrays(data)
    if y.size == 0:
        raise ValueError("dataset is empty")
    gd = _GroupData(codes, tx, y, status)
    x, logw = _hermite_nodes(int(quad_points))
    logtau = math.log(math.sqrt(tau2)) if tau2 > 0 else math.log(_TAU_FLOOR) - 60.0
    value = _loglik_core(
        np.array([math.log(lam), math.log(nu), beta, logtau]), gd, x, logw
    )
    if value == -math.inf:
        raise FloatingPointError("frailty likelihood evaluation diverged")
    return value


def _hessian(f, p: np.ndarray, h: float = _HESS_STEP) -> np.ndarray:
    """Central-difference Hessian of f at p."""
    npar = p.size
    out = np.empty((npar, npar))
    f0 = f(p)
    for i in range(npar):
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        out[i, i] = (f(pp) - 2.0 * f0 + f(pm)) / (h * h)
        for j in range(i + 1, npar):
            qpp, qpm, qmp, qmm = p.copy(), p.copy(), p.copy(), p.copy()
            qpp[[i, j]] += h
            qmm[[i, j]] -= h
            qpm[i] += h
            qpm[j] -= h
            qmp[i] -= h
            qmp[j] += h
            out[i, j] = out[j, i] = (f(qpp) - f(qpm) - f(qmp) + f(qmm)) / (4.0 * h * h)
    return out


def _beta_variance(hess: np.ndarray, index: int) -> float:
    """(index, index) element of the inverse negative Hessian, or nan."""
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        return math.nan
    v = float(cov[index, index])
    return v if math.isfinite(v) else math.nan


def _failed_fit(log_likelihood: float = -math.inf) -> FrailtyFit:
    return FrailtyFit(
        lambda_hat=math.nan,
        nu_hat=math.nan,
        beta_hat=math.nan,
        se_beta=math.nan,
        tau2_hat=math.nan,
        p_value=math.nan,
        converged=False,
        log_likelihood=log_likelihood,
    )


def fit_frailty(data) -> FrailtyFit:
    """Fit the Weibull frailty model to right-censored data by maximum
    marginal likelihood.

    The optimizer runs over (log lam, log nu, beta, log tau), started from
    a no-frailty Weibull fit (itself started at the exponential-rate
    estimate) with tau at 0.3. se_beta comes from the inverse negative
    numerical Hessian; the fit is flagged non-converged when the optimizer
    exhausts its iteration budget, the information matrix yields no
    positive variance for beta, the mode search inside quadrature fails,
    or the quadrature has not stabilized (15- vs 31-point disagreement).

    At designs with few events the normal-reference p_value over-rejects:
    nu_hat is biased upward and the observed-information se_beta is too
    small (0.87 times the spread of beta_hat; size 0.082 at alpha 0.05
    with 3 lines x 3 animals per arm). See README, "Known limitations".
    """
    codes, tx, y, status = as_arrays(data)
    if np.unique(codes).size < 2:
        raise ValueError("fit requires at least 2 distinct lines")
    events_ctl = float(status[tx == 0].sum())
    events_tx = float(status[tx == 1].sum())
    if events_ctl == 0 or events_tx == 0:
        # no information about the hazard ratio in one arm: never estimate
        return _failed_fit()

    gd = _GroupData(codes, tx, y, status)
    x, logw = _hermite_nodes(_QUAD_POINTS)
    nofrail_shift = math.log(_TAU_FLOOR) - 60.0

    def nll_nofrailty(p3: np.ndarray) -> float:
        return -_loglik_core(np.append(p3, nofrail_shift), gd, x, logw)

    def nll(p: np.ndarray) -> float:
        return -_loglik_core(p, gd, x, logw)

    lam_exp = max(gd.n_events / float(np.exp(gd.logy).sum()), 1e-12)
    start3 = np.array([math.log(lam_exp), 0.0, 0.0])
    # BFGS finite differences give inf - inf where the likelihood diverges;
    # such fits are caught as non-finite or non-converged below
    with np.errstate(invalid="ignore"):
        res3 = minimize(nll_nofrailty, start3, method="BFGS", options={"maxiter": _MAX_ITER})
        if not math.isfinite(res3.fun):
            return _failed_fit()
        res = minimize(nll, np.append(res3.x, math.log(0.3)), method="BFGS",
                       options={"maxiter": _MAX_ITER})
    if not math.isfinite(res.fun) or res.nit >= _MAX_ITER:
        return _failed_fit()

    tau2_hat = math.exp(2.0 * res.x[3])
    if tau2_hat <= _TAU2_BOUNDARY:
        # collapsed to the no-frailty model: report its exact optimum, with
        # the reduced model's information matrix (the log-tau coordinate of
        # the full Hessian is singular here)
        tau2_hat = 0.0
        point = res3.x
        log_likelihood = -float(res3.fun)
        hess = _hessian(lambda q: -nll_nofrailty(q), point.copy())
    else:
        point = res.x
        log_likelihood = -float(res.fun)
        hess = _hessian(lambda q: -nll(q), point.copy())
    var_beta = _beta_variance(hess, 2)
    if not var_beta > 0:
        return _failed_fit(log_likelihood)

    # quadrature stability at the optimum: refuse fits the node count cannot pin down
    x2, logw2 = _hermite_nodes(2 * _QUAD_POINTS + 1)
    ll_fine = _loglik_core(res.x, gd, x2, logw2)
    if abs(-float(res.fun) - ll_fine) > _QUAD_TOL:
        return _failed_fit(log_likelihood)

    beta = float(point[2])
    se = math.sqrt(var_beta)
    return FrailtyFit(
        lambda_hat=math.exp(float(point[0])),
        nu_hat=math.exp(float(point[1])),
        beta_hat=beta,
        se_beta=se,
        tau2_hat=tau2_hat,
        p_value=2.0 * float(ndtr(-abs(beta / se))),
        converged=True,
        log_likelihood=log_likelihood,
    )


def wald_test_frailty(fit: FrailtyFit, alpha: float) -> bool:
    """True when the fit rejects H0: beta = 0 at level alpha (normal
    reference).

    At designs with few events the test's size exceeds alpha, because
    nu_hat is biased upward and the observed-information standard error
    is too small; see README, "Known limitations".
    """
    if not fit.converged:
        raise ValueError("cannot test a non-converged fit")
    return fit.p_value < alpha
