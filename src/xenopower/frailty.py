"""Weibull proportional-hazards fit with a normal per-line frailty.

The conditional hazard for an animal in line i is

    h(t) = lam * nu * t**(nu-1) * exp(tx*beta + a_i),   a_i ~ N(0, tau2),

and the marginal likelihood integrates the per-line product of Weibull
densities/survivals over the frailty. Each line integral is evaluated by
adaptive Gauss-Hermite quadrature (Pinheiro & Chao, JCGS 2006): the nodes
are recentered at the integrand's mode and rescaled by the curvature
there, and the sum is accumulated in log space. The mode has a closed form
in the Wright omega function (Lawrence, Corless & Jeffrey, ACM TOMS 2012,
Algorithm 917), so no search runs inside an evaluation.

The fit runs over (log lam, log nu, beta, log tau) in two stages. The
no-frailty model (tau = 0) is solved exactly: for fixed nu each arm's
rate is its event count over sum(y**nu), which leaves a profile in log nu
with a single stationary point, found by safeguarded Newton. The full
model is then fitted by damped Newton with a backtracking line search,
started from that optimum with tau = 0.3. Its score and observed
information are analytic: each line's quadrature nodes are held fixed
within an evaluation, so they are exact for the quadrature rule, and the
nodes' own movement only enters at the order of the quadrature error
(Pinheiro & Chao, JCGS 2006). Each step solves with the Cholesky factor
of the negative information, unrolled in scalars; only where a pivot is
not positive does it fall back to an eigendecomposition with reflected
eigenvalues. A fit heading to tau = 0 reports the exact no-frailty
optimum with tau2_hat = 0; an interior one is kept only where a 31-node
rule, applied to the optimum's own hazards, agrees with the fit's 15-node
rule within 1e-4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._data import Design, as_arrays
from ._tdist import _t_crit, _t_tail
from .types import FrailtyParams

__all__ = ["FrailtyFit", "frailty_loglik", "fit_frailty", "wald_test_frailty"]

_LOG_TAU_FLOOR = math.log(1e-5)
_LOG_PI = math.log(math.pi)
# log bounds of the normal float range, inside which every rate lam must lie
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_QUAD_TOL = 1e-4
_QUAD_POINTS = 15
# Newton search: parameter box, budget, and stopping rule
_LOG_NU_MAX = math.log(50.0)
_LOG_TAU_MAX = math.log(20.0)
_LOG_TAU_START = math.log(0.3)
_LOG_TAU_BOUNDARY = math.log(1e-3)
_LOG_TAU_PROBE = math.log(0.15)
_LOG_TAU_LOW = _LOG_TAU_BOUNDARY - 1.0
_MAX_NEWTON = 30
_MAX_HALVINGS = 12
_MAX_STEP = 2.0
_DECREMENT_TOL = 1e-10
_NEAR_DECREMENT = 1e-6
_ARMIJO = 1e-4
# the direction in (log lam, log nu, beta, log tau) whose Newton decrement is var(beta_hat)
_UNIT_BETA = np.array([0.0, 0.0, 1.0, 0.0])
# rows of the 3 x 3 second-derivative matrix in the six per-line hazard sums
_SECOND = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


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


# the one value every failing exit of fit_frailty returns
_NOT_CONVERGED = FrailtyFit(lambda_hat=math.nan, nu_hat=math.nan, beta_hat=math.nan,
                            se_beta=math.nan, tau2_hat=math.nan, p_value=math.nan,
                            converged=False, log_likelihood=-math.inf)


def _hermite_nodes(quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes x and log(w * exp(x^2)), read-only."""
    x, w = np.polynomial.hermite.hermgauss(quad_points)
    logw = np.log(w) + x * x
    x.setflags(write=False)
    logw.setflags(write=False)
    return x, logw


@cache
def _special():
    """scipy.special, for wrightomega, imported at the first frailty
    evaluation rather than with the package (about half of its import
    time); a frailty PowerJob loads it when built, for forked workers."""
    import scipy.special

    return scipy.special


# the rule the fit maximises, and the finer rule that checks it at the optimum
_NODES = _hermite_nodes(_QUAD_POINTS)
_CHECK_NODES = _hermite_nodes(2 * _QUAD_POINTS + 1)


class _GroupData:
    """Precomputed per-dataset quantities reused across likelihood calls,
    beside the shared design record that holds the lines, arms and tx."""

    __slots__ = ("design", "logy", "d", "sum_dlogy", "n_events", "events", "basis")

    def __init__(self, design: Design, y: np.ndarray, delta: np.ndarray):
        self.design = design
        tx = design.tx
        logy = self.logy = np.log(y)
        self.d = np.bincount(design.codes, weights=delta, minlength=design.k)
        self.sum_dlogy = float(delta @ logy)
        self.n_events = float(delta.sum())
        # each arm's event count; the treated arm's is sum(delta tx)
        self.events = design.arm @ delta
        # columns 1, log y, tx, (log y)^2, tx log y, tx^2 = tx: BLAS products
        # over the sums round column 5 unlike column 2, so it keeps its own
        basis = self.basis = np.empty((logy.size, 6))
        basis[:, 0] = 1.0
        basis[:, 1] = logy
        basis[:, 2] = tx
        np.multiply(logy, logy, out=basis[:, 3])
        np.multiply(logy, tx, out=basis[:, 4])
        basis[:, 5] = tx


def _hazard_sums(p: np.ndarray, gd: _GroupData):
    """Per-line cumulative hazards A = sum(lam y**nu exp(beta tx)) and their
    derivatives in (l, s, b) = (log lam, log nu, beta), as a (lines, 6)
    array with columns A (= A_l = A_ll), A_s, A_b, A_ss, A_sb, A_bb; None
    where it overflows. Also returns nu and the event part of the log-likelihood."""
    loglam, lognu, beta = p[0], p[1], p[2]
    nu = math.exp(lognu)
    design = gd.design
    cum = np.exp(loglam + nu * gd.logy + beta * design.tx)
    # an infinite or nan hazard reaches every line's sums (0 * inf is nan)
    sums = design.member @ (cum[:, None] * gd.basis)
    if not np.isfinite(sums).all():
        return None
    # d/d(log nu) of exp(nu log y) brings down nu log y
    sums *= np.array([1.0, nu, 1.0, nu * nu, nu, 1.0])
    sums[:, 3] += sums[:, 1]
    k_total = gd.n_events * (loglam + lognu) + (nu - 1.0) * gd.sum_dlogy + beta * gd.events[1]
    return sums, nu, k_total


def _line_quadrature(d: np.ndarray, a_cum: np.ndarray, logtau: float, x: np.ndarray,
                     logw: np.ndarray):
    """Sum over lines of log integral(N(a; 0, tau2) * exp(d*a - A*exp(a)) da)
    by adaptive Gauss-Hermite quadrature, with each line's normalised node
    weights (lines, nodes) and node features (lines, 2, nodes): exp(node)
    and node^2/tau2; None where the sum is not finite. Each line's nodes
    are centred at its mode, with scale tau / sqrt(1 + omega).
    """
    tau2 = math.exp(2.0 * logtau)
    mode, omega = _integrand_modes(d, a_cum, tau2)
    root = np.sqrt(1.0 + omega)
    nodes = mode[:, None] + (math.sqrt(2.0 * tau2) / root)[:, None] * x
    feats = np.empty((d.size, 2, x.size))
    ea = np.exp(nodes, out=feats[:, 0])
    q = np.multiply(nodes, nodes, out=feats[:, 1])
    q /= tau2
    lw = logw - 0.5 * q + d[:, None] * nodes - a_cum[:, None] * ea
    mx = lw.max(axis=1)
    w = np.exp(lw - mx[:, None])
    sw = w.sum(axis=1)
    # per line, log(tau / root) for the node scale less log(sqrt(pi * tau2))
    # leaves -log(root) - log(pi)/2
    total = float((mx + np.log(sw / root)).sum()) - 0.5 * d.size * _LOG_PI
    if not math.isfinite(total):
        return None
    return total, w / sw[:, None], feats


def _integrand_modes(d: np.ndarray, a_cum: np.ndarray, tau2: float):
    """Per-line maximizers of -a^2/(2 tau2) + d*a - A*exp(a), and omega.

    The maximizer solves a/tau2 + A*exp(a) = d. With
    omega = wrightomega(log A + log tau2 + d*tau2) it is d*tau2 - omega,
    where A*exp(a) = omega/tau2, so the curvature there is
    (1 + omega)/tau2. A line with A = 0 gets omega = 0 and mode d*tau2;
    a nan A gives a nan mode.
    """
    dt = d * tau2
    omega = _special().wrightomega(np.log(a_cum) + math.log(tau2) + dt)
    return dt - omega, omega


def frailty_loglik(params, data) -> float:
    """Marginal log-likelihood of (lam, nu, beta, tau2) for a censored
    dataset, by the 15-node quadrature rule that fit_frailty maximises.

    ``params`` is the tuple (lam, nu, beta, tau2), checked as FrailtyParams
    checks them, and ``data`` as as_arrays does. tau2 = 0 gives the
    no-frailty log-likelihood, as does any tau2 below 1e-10 (tau < 1e-5).
    """
    lam, nu, beta, tau2 = params
    params = FrailtyParams(lam=lam, nu=nu, beta=beta, tau2=tau2)
    logtau = 0.5 * math.log(params.tau2) if params.tau2 > 0 else -math.inf
    with np.errstate(all="ignore"):
        gd = _GroupData(*as_arrays(data))
        terms = _hazard_sums(np.array([math.log(params.lam), math.log(params.nu), params.beta]), gd)
        if terms is not None:
            sums, _, k_total = terms
            if logtau < _LOG_TAU_FLOOR:
                # floor: the frailty collapses and the likelihood is flat in log tau
                return float(k_total - sums[:, 0].sum())
            lines = _line_quadrature(gd.d, sums[:, 0], logtau, *_NODES)
            if lines is not None:
                return float(k_total + lines[0])
    raise FloatingPointError("frailty likelihood evaluation diverged")


def _loglik_derivs(p: np.ndarray, gd: _GroupData):
    """Marginal log-likelihood, score and Hessian at
    p = (log lam, log nu, beta, log tau), and the hazard column and event
    part they came from, (A, k_total); None where it is not finite.

    Each line's quadrature nodes are held fixed, so the derivatives are
    those of a fixed-node rule: with normalised node weights, the score
    of a line is the weighted mean of the integrand's score and its
    Hessian adds the weighted covariance of that score.
    """
    terms = _hazard_sums(p, gd)
    if terms is None:
        return None
    sums, nu, k_total = terms
    lines = _line_quadrature(gd.d, sums[:, 0], p[3], *_NODES)
    if lines is None:
        return None
    total, w, feats = lines
    # per-line weighted means and centred second moments of exp(a) and
    # a^2/tau2, the integrand's score factors in the hazard parameters
    # and in log tau
    mean = feats @ w[:, :, None]
    dev = feats - mean
    cov = (dev * w[:, None, :]) @ dev.transpose(0, 2, 1)
    e1, q1 = mean[:, 0, 0], float(mean[:, 1, 0].sum())
    e_sums = e1 @ sums
    grad_a = sums[:, :3]
    # score and Hessian share one buffer, so one check covers both
    out = np.empty(20)
    score, hess = out[:4], out[4:].reshape(4, 4)
    # the event part's score: D, D + nu * sum(delta log y), sum(delta tx)
    score[:3] = (gd.n_events, gd.n_events + nu * gd.sum_dlogy, gd.events[1])
    score[:3] -= e_sums[:3]
    score[3] = q1 - gd.design.k
    hess[:3, :3] = grad_a.T @ (cov[:, 0, :1] * grad_a) - e_sums[_SECOND]
    hess[1, 1] += nu * gd.sum_dlogy
    hess[3, :3] = hess[:3, 3] = -(cov[:, 0, 1] @ grad_a)
    hess[3, 3] = float(cov[:, 1, 1].sum()) - 2.0 * q1
    if not np.isfinite(out).all():
        return None
    return k_total + total, score, hess, (sums[:, 0], k_total)


def _no_frailty_fit(gd: _GroupData):
    """Exact maximum of the no-frailty model (tau = 0) for a 0/1 treatment.

    For fixed nu the arm rates are d_arm / sum_arm(y**nu), so the profile
    in s = log nu has derivative nu * h(s) with
    h(s) = D/nu + sum(delta log y) - sum_arm d_arm * M_arm(nu), M_arm the
    y**nu-weighted mean of log y; h falls strictly in s, and its root is
    found by Newton steps kept inside a shrinking bracket. Returns
    (p, log-likelihood, Hessian, tau2-score at tau2 = 0), or None when
    the root lies outside the box |log nu| <= log 50.
    """
    arm = gd.design.arm
    treated = gd.design.tx == 1
    tops = np.array([gd.logy[~treated].max(), gd.logy[treated].max()])
    centred = gd.logy - tops[treated.astype(np.int64)]
    # rows: each arm's indicator times 1, log y - top, (log y - top)^2
    powers = np.concatenate((arm, arm * centred, arm * centred * centred))
    top0, top1 = tops.tolist()
    d0, d1 = gd.events.tolist()
    n_events, sum_dlogy = gd.n_events, gd.sum_dlogy

    def arm_moments(s: float):
        # sum(y**nu) / exp(nu * top), and the y**nu-weighted mean and
        # variance of log y - top, per arm; past the one product, scalars
        nu = math.exp(s)
        c0, c1, l0, l1, q0, q1 = (powers @ np.exp(nu * centred)).tolist()
        mean0, mean1 = l0 / c0, l1 / c1
        return nu, c0, c1, mean0, mean1, q0 / c0 - mean0 * mean0, q1 / c1 - mean1 * mean1

    def h(s: float):
        nu, _, _, mean0, mean1, var0, var1 = arm_moments(s)
        value = n_events / nu + sum_dlogy - (d0 * (top0 + mean0) + d1 * (top1 + mean1))
        slope = -n_events / nu - nu * (d0 * var0 + d1 * var1)
        return value, slope

    lo, hi = -_LOG_NU_MAX, _LOG_NU_MAX
    if not (h(lo)[0] > 0 > h(hi)[0]):
        return None
    s = 0.0
    for _ in range(100):
        value, slope = h(s)
        if value > 0:
            lo = s
        else:
            hi = s
        step = -value / slope
        if abs(step) <= 1e-12:
            break
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    else:
        return None
    nu, c0, c1 = arm_moments(s)[:3]
    log_rate0 = math.log(d0) - nu * top0 - math.log(c0)
    log_rate1 = math.log(d1) - nu * top1 - math.log(c1)
    p = np.array([log_rate0, s, log_rate1 - log_rate0])
    sums, nu, k_total = _hazard_sums(p, gd)
    total = sums.sum(axis=0)
    hess = -total[_SECOND]
    hess[1, 1] += nu * gd.sum_dlogy
    a_cum = sums[:, 0]
    tau2_score = 0.5 * float(np.sum((gd.d - a_cum) ** 2 - a_cum))
    return p, float(k_total - total[0]), hess, tau2_score


def _ascent_direction(score: np.ndarray, hess: np.ndarray):
    """Newton direction, Newton decrement score'(-hess)^-1 score, and
    whether -hess is positive definite.

    The step solves with the Cholesky factor L of -hess, unrolled in
    scalars for the 4 x 4 case: the decrement is |L^-1 score|^2. Only
    where a pivot is not positive, so -hess is not positive definite, are
    its eigenvalues reflected to their magnitudes (floored relative to the
    largest), so the direction still ascends; such a point never counts
    as converged.
    """
    # the lower triangle, which eigh reads too
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = hess.tolist()
    g0, g1, g2, g3 = score.tolist()
    # -hess = L L', column by column; each pivot is checked before its root
    p0 = -a00
    if p0 > 0:
        l00 = math.sqrt(p0)
        l10, l20, l30 = -a10 / l00, -a20 / l00, -a30 / l00
        p1 = -a11 - l10 * l10
        if p1 > 0:
            l11 = math.sqrt(p1)
            l21 = (-a21 - l20 * l10) / l11
            l31 = (-a31 - l30 * l10) / l11
            p2 = -a22 - l20 * l20 - l21 * l21
            if p2 > 0:
                l22 = math.sqrt(p2)
                l32 = (-a32 - l30 * l20 - l31 * l21) / l22
                p3 = -a33 - l30 * l30 - l31 * l31 - l32 * l32
                if p3 > 0:
                    l33 = math.sqrt(p3)
                    # z = L^-1 score, then direction = L'^-1 z
                    z0 = g0 / l00
                    z1 = (g1 - l10 * z0) / l11
                    z2 = (g2 - l20 * z0 - l21 * z1) / l22
                    z3 = (g3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
                    x3 = z3 / l33
                    x2 = (z2 - l32 * x3) / l22
                    x1 = (z1 - l21 * x2 - l31 * x3) / l11
                    x0 = (z0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
                    decrement = z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3
                    return np.array([x0, x1, x2, x3]), decrement, True
    eig, vec = np.linalg.eigh(-hess)
    definite = eig[0] > 0
    if not definite:
        eig = np.maximum(np.abs(eig), 1e-8 * max(float(np.abs(eig).max()), 1e-300))
    direction = vec @ ((vec.T @ score) / eig)
    return direction, float(score @ direction), definite


def _newton(p: np.ndarray, gd: _GroupData, value0: float, tau2_score0: float):
    """Damped Newton ascent of the marginal log-likelihood from p.

    Each direction comes from _ascent_direction: a Cholesky solve where
    -hess is positive definite, reflected eigenvalues elsewhere; only a
    positive definite point with a Newton decrement at most 1e-10 counts
    as a maximum.

    Returns (boundary, p, value, hess, hazard), hazard as _loglik_derivs
    gives it at p: boundary is False at a maximum, and
    True when the search heads to tau = 0 and either tau has fallen below
    1e-3, or it is below 0.15 and the no-frailty optimum (log-likelihood
    value0, tau2-score tau2_score0) is a boundary maximum at least as high,
    where Newton in log tau would only creep down (about 0.49 a step). The
    stop cannot change a fit, since a boundary fit reports the no-frailty
    optimum; from tau = 0.3 it comes about two steps after the start.
    Returns None when an evaluation is not finite, the line search stalls,
    the iterate leaves the box or the budget is spent.
    """
    current = _loglik_derivs(p, gd)
    if current is None:
        return None
    for _ in range(_MAX_NEWTON):
        value, score, hess, hazard = current
        if score[3] <= 0 and p[3] < _LOG_TAU_PROBE and (
            p[3] < _LOG_TAU_BOUNDARY or (tau2_score0 <= 0 and value <= value0)
        ):
            return True, p, value, hess, hazard
        direction, decrement, definite = _ascent_direction(score, hess)
        if definite and decrement <= _DECREMENT_TOL:
            return False, p, value, hess, hazard
        # within quadrature error of the optimum the value cannot confirm
        # an ascent, so a near-converged Newton step is taken in full
        near = definite and decrement <= _NEAR_DECREMENT
        # the trials' arithmetic on 4 numbers runs in Python floats: the
        # steps round as numpy's elementwise operations do; the Armijo dot
        # product may differ from a BLAS dot (which can fuse multiply-adds)
        # in its last bit, far below the rounding of value + 1e-4 * dot
        v0, v1, v2, v3 = direction.tolist()
        biggest = max(abs(v0), abs(v1), abs(v2), abs(v3))
        if biggest > _MAX_STEP:
            scale = _MAX_STEP / biggest
            v0, v1, v2, v3 = v0 * scale, v1 * scale, v2 * scale, v3 * scale
        b0, b1, b2, b3 = p.tolist()
        g0, g1, g2, g3 = score.tolist()
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            t0, t1, t2 = b0 + step * v0, b1 + step * v1, b2 + step * v2
            t3 = max(b3 + step * v3, _LOG_TAU_LOW)
            trial = np.array([t0, t1, t2, t3])
            nxt = _loglik_derivs(trial, gd)
            if nxt is not None and (near or nxt[0] >= value + _ARMIJO * (
                g0 * (t0 - b0) + g1 * (t1 - b1) + g2 * (t2 - b2) + g3 * (t3 - b3)
            )):
                break
            step *= 0.5
        else:
            return None
        p, current = trial, nxt
        if abs(t1) > _LOG_NU_MAX or t3 > _LOG_TAU_MAX:
            return None
    return None


def fit_frailty(data) -> FrailtyFit:
    """Fit the Weibull frailty model by maximum marginal likelihood to
    right-censored data, which as_arrays checks (raising ValueError).

    The exact no-frailty optimum (tau = 0) starts a damped Newton search
    over (log lam, log nu, beta, log tau) with tau at 0.3, using the
    analytic score and observed information of the quadrature rule. A
    search that heads to tau = 0 ends on the boundary: the fit reports the
    no-frailty optimum with tau2_hat = 0 and that model's information. It
    stops there once the log tau score is not positive and tau is below
    1e-3, or below 0.15 where the no-frailty optimum is a boundary maximum
    (tau2-score not positive) no lower than the current value.
    se_beta is the square root of the beta element of the inverse
    information. The fit is flagged non-converged when an arm has no
    events, either stage leaves the box |log nu| <= log 50,
    log tau <= log 20, the Newton search stalls or spends its budget of 30
    steps, the quadrature is not finite or has not stabilized (15- vs
    31-point disagreement), the information matrix is not positive
    definite, or lambda_hat falls outside the normal float range.

    At designs with few events the normal-reference p_value over-rejects:
    nu_hat is biased upward and the observed-information se_beta is too
    small (0.88 times the spread of beta_hat; size 0.075 at alpha 0.05
    with 3 lines x 3 animals per arm). See README, "Known limitations".
    """
    design, y, status = as_arrays(data)
    # the helpers set no errstate of their own: log(0) for a zero hazard and
    # overflowing trial iterates end at their finiteness checks
    with np.errstate(all="ignore"):
        gd = _GroupData(design, y, status)
        if not gd.events.all():
            # no information about the hazard ratio in one arm: never estimate
            return _NOT_CONVERGED
        start = _no_frailty_fit(gd)
        if start is None:
            return _NOT_CONVERGED
        p0, value0, hess0, tau2_score0 = start

        result = _newton(np.append(p0, _LOG_TAU_START), gd, value0, tau2_score0)
        if result is None:
            return _NOT_CONVERGED
        boundary, point, log_likelihood, hess, (a_cum, k_total) = result
        if boundary:
            tau2_hat, point, log_likelihood = 0.0, p0, value0
            # the no-frailty information, with a unit row and column for log tau
            hess = np.diag([0.0, 0.0, 0.0, -1.0])
            hess[:3, :3] = hess0
        else:
            tau2_hat = math.exp(2.0 * float(point[3]))
            # quadrature stability at the optimum: refuse fits the node count cannot pin down
            check = _line_quadrature(gd.d, a_cum, point[3], *_CHECK_NODES)
            if check is None or abs(log_likelihood - (k_total + check[0])) > _QUAD_TOL:
                return _NOT_CONVERGED
        # var(beta_hat), the beta element of the inverse information, is
        # the Newton decrement of the unit beta vector
        _, var_beta, definite = _ascent_direction(_UNIT_BETA, hess)
    if not (definite and 0 < var_beta < math.inf
            and _LOG_FLOAT_MIN < point[0] < _LOG_FLOAT_MAX):
        return _NOT_CONVERGED

    beta = float(point[2])
    se = math.sqrt(var_beta)
    return FrailtyFit(lambda_hat=math.exp(float(point[0])), nu_hat=math.exp(float(point[1])),
                      beta_hat=beta, se_beta=se, tau2_hat=tau2_hat,
                      p_value=_t_tail(math.inf, beta / se), converged=True,
                      log_likelihood=float(log_likelihood))


def wald_test_frailty(fit: FrailtyFit, alpha: float) -> bool:
    """True when the fit rejects H0: beta = 0 at level alpha, that is when
    |beta_hat|/se exceeds the normal critical value, wald_test_lmm's rule at
    df = inf. At designs with few events it over-rejects; see fit_frailty."""
    if not fit.converged:
        raise ValueError("cannot test a non-converged fit")
    return abs(fit.beta_hat / fit.se_beta) > _t_crit(math.inf, alpha)
