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
so simulated designs get it in closed form. One kernel applies that rule
to four sums of log y (sum log y, sum (log y)^2, the sum of squared line
totals and the arm contrast), for one dataset in fit_lmm or for a stack
of simulated datasets at once in the engine. Unbalanced data, such as a
pilot with a lost animal, get the general per-line profile and a bounded
one-dimensional search over log theta (Brent's method, _bounded_min),
with the boundary theta = 0 always evaluated as a candidate; that path is also the reference the
balanced rule is tested against. Both paths read the design record and
one container of sums of log y. Either way tau2_hat = 0 is a legal
estimate.

The Wald test rejects when |beta_hat|/se exceeds _tdist's Student-t
critical value on df = N - lines - 1, in the per-dataset test and the
engine's stack alike; LmmFit.p_value, its two-sided tail, is for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._data import Design, as_arrays
from ._tdist import _t_crit, _t_tail

__all__ = ["LmmFit", "fit_lmm", "wald_test_lmm"]

_THETA_LO = 1e-8
_THETA_HI = 1e6
_LOG_THETA_LO = math.log(_THETA_LO)
_LOG_THETA_HI = math.log(_THETA_HI)
_XATOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


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
    """Evaluate the profiled REML criterion at variance ratio theta from
    the V0-weighted cross-products of X = [1, tx] and log y (a = X'WX,
    b = X'Wy, ytwy = y'Wy with W = V0^-1).

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
    det = a00 * a11 - a01 * a01
    if not det > 0:
        return math.inf, math.nan, math.nan, math.nan, math.nan
    beta0 = (a11 * b0 - a01 * b1) / det
    beta = (a00 * b1 - a01 * b0) / det
    rss = ytwy - (b0 * beta0 + b1 * beta)
    dof = N - 2
    sigma2 = rss / dof
    # a residual within rounding of the sums is an exact fit, sigma2 = 0
    if not rss > N * _EPS * st.Syy or not math.isfinite(sigma2):
        return math.inf, math.nan, math.nan, math.nan, math.nan
    logdet_v0 = float(np.sum(np.log1p(theta * ni)))
    neg2ll = dof * (math.log(2.0 * math.pi * sigma2) + 1.0) + logdet_v0 + math.log(det)
    var_beta = sigma2 * a00 / det
    return neg2ll, beta0, beta, sigma2, var_beta


def _balanced_rows(Sy, Syy, Q, D, N: int, k: int, J):
    """The balanced REML fit, for one dataset (np.float64 sums) or for
    arrays of rows, as (theta, sigma2, beta, var_beta, converged).

    A balanced design has k lines of J animals each, half of each line
    treated (Design.J is not None), and N = kJ. Its fit needs only
    Sy = sum log y, Syy = sum (log y)^2, Q = the sum over lines of the
    squared line total of log y and the arm contrast
    D = sum (tx - 1/2) log y. The within-line SS W, the between-line SS B
    and D give theta, the ANOVA mean-squares estimate: theta <= _THETA_LO
    is the boundary theta = 0, and theta is clamped at _THETA_HI (its value
    when the within-line mean square is not positive). Then
    rss = W + B/(1 + theta*J), which does not cancel at a large theta,
    beta_hat = 4D/N and var(beta_hat) = 4 sigma2/N. A fit converges when
    rss is above the rounding of the sums (else it is exact, sigma2 = 0)
    and var(beta_hat) is positive and finite.
    """
    with np.errstate(all="ignore"):
        ssl = Q / J
        W = Syy - ssl - D * D / (N / 4.0)
        B = ssl - Sy * Sy / N
        msw = W / (N - k - 1)
        theta = np.where(msw > 0, (B / (k - 1) - msw) / (J * msw), _THETA_HI)
        theta = np.where(theta <= _THETA_LO, 0.0, np.minimum(theta, _THETA_HI))
        rss = W + B / (1.0 + theta * J)
        sigma2 = rss / (N - 2)
        var_beta = 4.0 * sigma2 / N
        converged = (rss > N * _EPS * Syy) & np.isfinite(var_beta) & (var_beta > 0)
    return theta, sigma2, 4.0 * D / N, var_beta, converged


def _balanced_tests(y: np.ndarray, status, design: Design, alpha: float):
    """(rejected, converged, t) of fit_lmm and wald_test_lmm for each row
    of y, an (R, N) stack of outcomes on one balanced design whose lines
    are contiguous blocks of J animals (as datagen lays them out); status
    is None, as every outcome is an event, and is taken so that both
    models' stacks are decided through one signature.
    t = |beta_hat|/se, nan where a row does not converge, and a row is
    rejected where t exceeds the design's one critical value, as
    wald_test_lmm decides; no p-value is formed. A row that as_arrays would
    refuse (an outcome of 0 or inf) has an infinite sum of squares, so it
    converges by none of _balanced_rows's rules.
    """
    R, N = y.shape
    k, J = design.k, int(design.J)
    with np.errstate(all="ignore"):
        logy = np.log(y)
        lines = logy.reshape(R, k, J).sum(axis=2)
        _theta, _sigma2, beta, var_beta, converged = _balanced_rows(
            logy.sum(axis=1), np.einsum("ij,ij->i", logy, logy),
            np.einsum("ij,ij->i", lines, lines), logy @ (design.tx - 0.5), N, k, J)
        t = np.where(converged, np.abs(beta / np.sqrt(var_beta)), np.nan)
    return t > _t_crit(N - k - 1, alpha), converged, t


def _sign(v: float) -> float:
    """fminbound's np.sign(v) + (v == 0): 1 at zero."""
    return -1.0 if v < 0.0 else 1.0


def _bounded_min(f, a: float, b: float, xatol: float, max_evals: int = 500):
    """Minimise f over [a, b] by Brent's method (golden sections and
    parabolic steps), as scipy's fminbound does, step for step, so the
    search visits the same points; returns (x, f(x), ok), where ok is False
    when max_evals evaluations ran out before x was within xatol."""
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    evals = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # the parabola through the best three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= max_evals:
            return xf, fx, False
    return xf, fx, True


def fit_lmm(data) -> LmmFit:
    """Fit the random-intercept model to a dataset by REML and compute the
    two-sided test of zero treatment effect.

    The log of each outcome is taken internally; p_value is the two-sided
    Student-t tail of beta_hat/se on df = N - lines - 1, for reporting.
    Data that as_arrays refuses (an outcome of 0,
    inf or nan among them) and data with no residual degree of freedom
    (N - lines - 1 < 1, which as_arrays's two lines make true of every
    N < 3) raise ValueError.
    """
    design, y, _status = as_arrays(data)
    df = float(y.size - design.k - 1)
    if df < 1:
        raise ValueError(f"fit requires more observations than lines + 1, got {y.size} "
                         f"observations in {design.k} lines")

    st = _Sufficient(design, np.log(y))
    if design.J is not None:
        N, k, J = y.size, design.k, design.J
        theta, sigma2, beta, var_beta, converged = _balanced_rows(
            np.float64(st.Sy), np.float64(st.Syy), st.sy @ st.sy,
            np.float64(st.Sxy - st.Sy / 2.0), N, k, J)
        if not converged:
            return _NOT_CONVERGED
        # log det V0 = k log(1 + theta*J); det X'V0^-1 X = N^2/(4(1 + theta*J))
        neg2 = ((N - 2) * (math.log(2.0 * math.pi * sigma2) + 1.0)
                + k * math.log1p(theta * J) + math.log(N * N / (4.0 * (1.0 + theta * J))))
        beta0 = st.Sy / N - beta / 2.0
    else:
        log_theta, value, ok = _bounded_min(lambda lt: _profile(math.exp(lt), st)[0],
                                            _LOG_THETA_LO, _LOG_THETA_HI, _XATOL)
        if not ok:
            return _NOT_CONVERGED
        theta = math.exp(log_theta) if value < _profile(0.0, st)[0] else 0.0
        if theta <= _THETA_LO:
            theta = 0.0
        neg2, beta0, beta, sigma2, var_beta = _profile(theta, st)
        if not (math.isfinite(neg2) and var_beta > 0):
            return _NOT_CONVERGED
    se = math.sqrt(var_beta)
    return LmmFit(
        beta0_hat=float(beta0),
        beta_hat=float(beta),
        se_beta=float(se),
        tau2_hat=float(theta * sigma2),
        sigma2_hat=float(sigma2),
        df=df,
        p_value=_t_tail(df, float(beta) / se),
        converged=True,
        log_restricted_likelihood=-0.5 * neg2,
    )


def wald_test_lmm(fit: LmmFit, alpha: float) -> bool:
    """True when the fit rejects H0: beta = 0 at level alpha, that is when
    |beta_hat|/se exceeds the two-sided Student-t critical value on the
    fit's df (the rule of the engine's stacked chunks too)."""
    if not fit.converged:
        raise ValueError("cannot test a non-converged fit")
    return abs(fit.beta_hat / fit.se_beta) > _t_crit(fit.df, alpha)
