"""Weibull proportional-hazards fit with a normal per-line frailty.

The conditional hazard for an animal in line i is

    h(t) = lam * nu * t**(nu-1) * exp(tx*beta + a_i),   a_i ~ N(0, tau2),

and the marginal likelihood integrates the per-line product of Weibull
densities/survivals over the frailty. Each line integral is evaluated by
adaptive Gauss-Hermite quadrature (Pinheiro & Chao, JCGS 2006): the nodes
are recentered at the integrand's mode and rescaled by the curvature
there, and the sum is accumulated in log space. The mode has a closed form
in the Wright omega function, which _wrightomega evaluates by the real
branch of Lawrence, Corless & Jeffrey's Algorithm 917 (ACM TOMS 2012) in
a fixed number of numpy operations, so no search runs inside an
evaluation and the module needs numpy alone.

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
of the negative information, unrolled elementwise; only where a pivot is
not positive does it fall back to an eigendecomposition with reflected
eigenvalues. A fit heading to tau = 0 reports the exact no-frailty
optimum with tau2_hat = 0; an interior one is kept only where a 31-node
rule, applied to the optimum's own hazards, agrees with the fit's 15-node
rule within 1e-4.

Every fit runs as a stack (_stacked_fits): the same steps over many
datasets at once, one per row, each row leaving the Newton search at its
own stop. The engine stacks a chunk's simulated datasets; fit_frailty and
frailty_loglik lay out their one dataset as a one-row stack (_one_row),
so a lone fit equals its row of a chunk bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
_TWO_STEP_TOL = 72.0 * sys.float_info.epsilon
# the direction in (log lam, log nu, beta, log tau) whose Newton decrement is var(beta_hat)
_UNIT_BETA = np.array([0.0, 0.0, 1.0, 0.0])


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


def _fsc_step(x: np.ndarray, w: np.ndarray):
    """One Fritsch-Shafer-Crowley step for w + log w = x, in the order of
    Algorithm 917's arithmetic: (the new w, the residual r, w + 1)."""
    r = x - w
    r -= np.log(w)
    wp1 = w + 1.0
    a = 2.0 / 3.0 * r
    a += wp1
    a *= 2.0 * wp1
    e = r / wp1
    e *= a - r
    e /= a - 2.0 * r
    e += 1.0
    return w * e, r, wp1


def _wrightomega(x: np.ndarray) -> np.ndarray:
    """The Wright omega function of a real array, the real branch of
    Lawrence, Corless & Jeffrey's Algorithm 917 (which scipy.special
    implements too), in a fixed number of array operations. On [-50, 1e20]
    it starts from exp(x) below -2, exp(2(x-1)/3) below 1 and
    x - log x + log x/x above, takes one FSC step and a second only where
    the algorithm's condition-number test asks for it; below -50 it is
    exp(x), above 1e20 x, so -inf gives 0, inf gives inf and nan gives nan.
    Each branch's argument is clipped into its domain first, so no input
    raises a numpy warning."""
    # np.clip, as two ufuncs: its Python wrapper costs more than the pair
    # at the few hundred entries of a stacked evaluation
    c = np.minimum(np.maximum(x, -50.0), 1e20)
    lo = np.minimum(c, 1.0)
    w = lo - 1.0
    w *= 2.0
    w /= 3.0
    np.copyto(w, lo, where=lo < -2.0)
    np.exp(w, out=w)
    hi = np.maximum(c, 1.0)
    lg = np.log(hi)
    big = hi - lg
    big += lg / hi
    np.copyto(w, big, where=c >= 1.0)
    w, r, wp1 = _fsc_step(c, w)
    r *= r
    wp1 *= wp1
    # (2w^2 - 8w - 1) r^4 >= 72 eps (w + 1)^6, with the squares above
    two = np.abs((2.0 * w * w - 8.0 * w - 1.0) * (r * r)) >= _TWO_STEP_TOL * (wp1 * wp1 * wp1)
    if np.count_nonzero(two):
        np.copyto(w, _fsc_step(c, w)[0], where=two)
    if np.count_nonzero(c != x):
        w = np.where(x < -50.0, np.exp(np.minimum(x, -50.0)), np.where(x > 1e20, x, w))
    return w


# the rule the fit maximises, and the finer rule that checks it at the optimum
_NODES = _hermite_nodes(_QUAD_POINTS)
_CHECK_NODES = _hermite_nodes(2 * _QUAD_POINTS + 1)


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
    design, y, status = as_arrays(data)
    y, status, mask = _one_row(design, y, status)
    with np.errstate(all="ignore"):
        st = _Stack(y, status, design.k, mask)
        p = np.array([[math.log(params.lam), math.log(params.nu), params.beta]])
        sums, _, k_total, finite = _stacked_hazard_sums(p, st)
        if finite[0]:
            if logtau < _LOG_TAU_FLOOR:
                # floor: the frailty collapses and the likelihood is flat in log tau
                return float(k_total[0] - sums[0, 0].sum())
            total, *_, finite = _stacked_quadrature(st.d, sums[:, 0], np.array([logtau]), *_NODES)
            if finite[0]:
                return float(k_total[0] + total[0])
    raise FloatingPointError("frailty likelihood evaluation diverged")


def fit_frailty(data) -> FrailtyFit:
    """Fit the Weibull frailty model by maximum marginal likelihood to
    right-censored data, which as_arrays checks (raising ValueError). The
    dataset is fitted as one row (_one_row) of the stack that the engine
    fits a chunk by (_stacked_fits), so a lone fit equals its chunk row.

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
    y, status, mask = _one_row(design, y, status)
    converged, *estimates = (row[0].item() for row in _stacked_fits(y, status, design, mask))
    if not converged:
        return _NOT_CONVERGED
    beta, se, tau2, lam, nu, log_likelihood = estimates
    return FrailtyFit(lambda_hat=lam, nu_hat=nu, beta_hat=beta, se_beta=se, tau2_hat=tau2,
                      p_value=_t_tail(math.inf, beta / se), converged=True,
                      log_likelihood=log_likelihood)


def wald_test_frailty(fit: FrailtyFit, alpha: float) -> bool:
    """True when the fit rejects H0: beta = 0 at level alpha, that is when
    |beta_hat|/se exceeds the normal critical value, wald_test_lmm's rule at
    df = inf. At designs with few events it over-rejects; see fit_frailty."""
    if not fit.converged:
        raise ValueError("cannot test a non-converged fit")
    return abs(fit.beta_hat / fit.se_beta) > _t_crit(math.inf, alpha)


def _stacked_tests(y: np.ndarray, status, design: Design, alpha: float):
    """(rejected, converged, t) of fit_frailty and wald_test_frailty for
    each row of a stack that _stacked_fits fits (status None: all events).
    t = |beta_hat|/se, nan where a row does not converge, and a row is
    rejected where t exceeds the normal critical value; no p-value is
    formed."""
    if status is None:
        status = np.ones(y.shape)
    converged, beta, se = _stacked_fits(y, status, design)[:3]
    with np.errstate(invalid="ignore"):  # the nan estimates of non-converged rows
        t = np.where(converged, np.abs(beta / se), np.nan)
        return t > _t_crit(math.inf, alpha), converged, t


# Stacked fits: datasets of one design, one per row, fitted together. Every
# operation is elementwise or reduces along a non-row axis, so a row's
# result does not depend on the other rows, bit for bit; rows leave the
# Newton search as they stop.

# a stack's hazard sums come in the columns A, A_s, A_ss, A_b, A_sb: the
# first three over each line, the last two over its treated half; the
# hazard gradient (A, A_s, A_b) and the 3 x 3 second-derivative matrix
# (tx^2 = tx, so A_bb = A_b) read them by these indices
_GRAD_STACKED = [0, 1, 3]
_SECOND_STACKED = np.array([[0, 1, 3], [1, 2, 4], [3, 4, 3]])
# how a row's Newton search ended
_RUNNING, _INTERIOR, _BOUNDARY, _FAILED = 0, 1, 2, 3


class _Stack:
    """Per-row quantities of a stack of datasets, reused across likelihood
    calls: each row's lines are contiguous blocks of 2h animals, the first
    h in the control arm, as _design_arrays lays them out and _one_row lays
    out any dataset. A mask (rows, animals), 0 on the animals that
    _one_row's padding adds, zeroes their powers of log y."""

    __slots__ = ("tx", "logy", "powers", "d", "events", "n_events", "sum_dlogy")

    def __init__(self, y: np.ndarray, status: np.ndarray, k: int, mask=None):
        rows, size = y.shape
        half = size // (2 * k)
        self.tx = np.repeat([0.0, 1.0], half)
        logy = self.logy = np.log(y).reshape(rows, k, 2 * half)
        status = status.reshape(logy.shape)
        self.d = status.sum(axis=-1)
        # each arm's event count, control then treated
        self.events = status.reshape(rows, k, 2, half).sum(axis=-1).sum(axis=1)
        self.n_events = self.d.sum(axis=-1)
        self.sum_dlogy = (status * logy).reshape(rows, size).sum(axis=-1)
        # 1, log y and (log y)^2, the factors of each line's hazard sums;
        # the first, times the mask, is the mask
        powers = self.powers = np.empty((rows, 3) + logy.shape[1:])
        powers[:, 0] = 1.0
        powers[:, 1] = logy
        np.multiply(logy, logy, out=powers[:, 2])
        if mask is not None:
            powers *= mask.reshape(rows, 1, k, 2 * half)

    def take(self, rows) -> "_Stack":
        """The stack of the given rows (indices or a mask)."""
        out = object.__new__(_Stack)
        for name in self.__slots__:
            value = getattr(self, name)
            setattr(out, name, value if name == "tx" else value[rows])
        return out


def _one_row(design: Design, y: np.ndarray, status: np.ndarray):
    """Any dataset as one row of a stack: (y, status, mask), each
    (1, k * 2h). The animals are sorted by line, then arm, and each line's
    arms are padded to h, the largest arm's size, with masked copies of the
    arm's first animal: status 0 and mask 0, so they add to no sum and
    leave each arm's largest time as it is. A generated dataset is already
    in this order, and its arms need no padding."""
    arm = design.tx.astype(np.int64)
    slot = 2 * design.codes + arm
    counts = np.bincount(slot, minlength=2 * design.k)
    h = counts.max()
    order = np.argsort(slot, kind="stable")
    # an animal's place: its slot's block of h, then its rank within the slot
    ranked = slot[order]
    place = h * ranked + np.arange(ranked.size) - (np.cumsum(counts) - counts)[ranked]
    # arm.argmin() and arm.argmax() are each arm's first animal
    source = np.tile(np.repeat([arm.argmin(), arm.argmax()], h), design.k)
    source[place] = order
    mask = np.zeros(source.size)
    mask[place] = 1.0
    return y[source][None], (status[source] * mask)[None], mask[None]


def _stacked_hazard_sums(p: np.ndarray, st: _Stack):
    """Per-line cumulative hazards A = sum(lam y**nu exp(beta tx)) and their
    derivatives in (l, s, b) = (log lam, log nu, beta), per row of
    p = (log lam, log nu, beta, ...): the sums as (rows, 5, lines), columns
    A (= A_l = A_ll), A_s, A_ss, A_b (= A_bb), A_sb; nu; the event part of
    the log-likelihood; and which rows' sums are finite."""
    loglam, lognu, beta = p[:, 0], p[:, 1], p[:, 2]
    nu = np.exp(lognu)
    cum = np.exp(loglam[:, None, None] + nu[:, None, None] * st.logy
                 + beta[:, None, None] * st.tx)
    terms = st.powers * cum[:, None]
    sums = np.empty((p.shape[0], 5, st.logy.shape[1]))
    np.sum(terms, axis=-1, out=sums[:, :3])
    np.sum(terms[:, :2, :, st.tx.size // 2:], axis=-1, out=sums[:, 3:])
    finite = np.isfinite(sums).all(axis=(1, 2))
    # d/d(log nu) of exp(nu log y) brings down nu log y
    sums[:, 1] *= nu[:, None]
    sums[:, 2] *= (nu * nu)[:, None]
    sums[:, 4] *= nu[:, None]
    sums[:, 2] += sums[:, 1]
    k_total = (st.n_events * (loglam + lognu) + (nu - 1.0) * st.sum_dlogy
               + beta * st.events[:, 1])
    return sums, nu, k_total, finite


def _stacked_quadrature(d: np.ndarray, a_cum: np.ndarray, logtau: np.ndarray, x: np.ndarray,
                        logw: np.ndarray):
    """Sum over lines of log integral(N(a; 0, tau2) * exp(d*a - A*exp(a)) da)
    by adaptive Gauss-Hermite quadrature, per row, logtau one per row: the
    total, the normalised node weights and the node features exp(node) and
    node^2/tau2 as (rows, lines, nodes), and which totals are finite.

    Each line's nodes are centred at the integrand's maximizer, which
    solves a/tau2 + A*exp(a) = d: with
    omega = wrightomega(log A + log tau2 + d*tau2) it is d*tau2 - omega,
    where A*exp(a) = omega/tau2, so the curvature there is (1 + omega)/tau2
    and the nodes' scale tau / sqrt(1 + omega). A line with A = 0 gets
    omega = 0 and mode d*tau2; a nan A gives a nan mode.
    """
    tau2 = np.exp(2.0 * logtau)[:, None]
    dt = d * tau2
    omega = _wrightomega(np.log(a_cum) + np.log(tau2) + dt)
    root = np.sqrt(1.0 + omega)
    nodes = (dt - omega)[..., None] + (np.sqrt(2.0 * tau2) / root)[..., None] * x
    ea = np.exp(nodes)
    q = nodes * nodes
    q /= tau2[..., None]
    lw = logw - 0.5 * q + d[..., None] * nodes - a_cum[..., None] * ea
    mx = lw.max(axis=-1)
    w = np.exp(lw - mx[..., None])
    sw = w.sum(axis=-1)
    # per line, log(tau / root) for the node scale less log(sqrt(pi * tau2))
    # leaves -log(root) - log(pi)/2
    total = (mx + np.log(sw / root)).sum(axis=-1) - 0.5 * d.shape[-1] * _LOG_PI
    return total, w / sw[..., None], ea, q, np.isfinite(total)


def _stacked_derivs(p: np.ndarray, st: _Stack):
    """Marginal log-likelihood, score (rows, 4) and Hessian (rows, 4, 4)
    per row of p = (log lam, log nu, beta, log tau), with the hazard
    column A (rows, lines) and event part they came from, and which rows
    are finite.

    Each line's quadrature nodes are held fixed, so the derivatives are
    those of a fixed-node rule: with normalised node weights, the score
    of a line is the weighted mean of the integrand's score and its
    Hessian adds the weighted covariance of that score.
    """
    sums, nu, k_total, finite = _stacked_hazard_sums(p, st)
    a_cum = sums[:, 0]
    total, w, ea, q, finite_lines = _stacked_quadrature(st.d, a_cum, p[:, 3], *_NODES)
    # per-line weighted means and centred second moments of exp(a) and
    # a^2/tau2, the integrand's score factors in the hazard parameters and
    # in log tau
    e1 = (w * ea).sum(axis=-1)
    q1_line = (w * q).sum(axis=-1)
    dev_e = ea - e1[..., None]
    dev_q = q - q1_line[..., None]
    w_dev_e = w * dev_e
    cov_ee = (w_dev_e * dev_e).sum(axis=-1)
    cov_eq = (w_dev_e * dev_q).sum(axis=-1)
    cov_qq = (w * dev_q * dev_q).sum(axis=-1)
    q1 = q1_line.sum(axis=-1)
    e_sums = (sums * e1[:, None]).sum(axis=-1)
    grad_a = sums[:, _GRAD_STACKED]
    score = np.empty((p.shape[0], 4))
    hess = np.empty((p.shape[0], 4, 4))
    # the event part's score: D, D + nu * sum(delta log y), sum(delta tx)
    score[:, 0] = st.n_events - e_sums[:, 0]
    score[:, 1] = st.n_events + nu * st.sum_dlogy - e_sums[:, 1]
    score[:, 2] = st.events[:, 1] - e_sums[:, 3]
    score[:, 3] = q1 - st.d.shape[-1]
    hess[:, :3, :3] = ((grad_a[:, :, None] * (cov_ee[:, None] * grad_a)[:, None]).sum(axis=-1)
                       - e_sums[:, _SECOND_STACKED])
    hess[:, 1, 1] += nu * st.sum_dlogy
    hess[:, 3, :3] = hess[:, :3, 3] = -(cov_eq[:, None] * grad_a).sum(axis=-1)
    hess[:, 3, 3] = cov_qq.sum(axis=-1) - 2.0 * q1
    finite &= (finite_lines & np.isfinite(score).all(axis=1)
               & np.isfinite(hess).all(axis=(1, 2)))
    return k_total + total, score, hess, a_cum, k_total, finite


def _stacked_no_frailty(st: _Stack):
    """Exact maximum of the no-frailty model (tau = 0) per row, for a 0/1
    treatment: (p (rows, 3), log-likelihood, Hessian (rows, 3, 3),
    tau2-score at tau2 = 0, and which rows found the root in the box
    |log nu| <= log 50).

    For fixed nu the arm rates are d_arm / sum_arm(y**nu), so the profile
    in s = log nu has derivative nu * h(s) with
    h(s) = D/nu + sum(delta log y) - sum_arm d_arm * M_arm(nu), M_arm the
    y**nu-weighted mean of log y; h falls strictly in s, and each row's
    root is found by Newton steps kept inside its own shrinking bracket,
    stopping at its own step below 1e-12.
    """
    rows, k, size = st.logy.shape
    half = size // 2

    def by_arm(a):
        # (rows, 2, k * half), the control arm first
        return a.reshape(rows, k, 2, half).transpose(0, 2, 1, 3).reshape(rows, 2, k * half)

    logy, mask = by_arm(st.logy), by_arm(st.powers[:, 0])
    tops = logy.max(axis=-1)
    centred = logy - tops[..., None]
    # rows: each arm's mask times 1, log y - top, (log y - top)^2
    powers = np.stack((mask, centred * mask, centred * centred * mask), axis=1)
    d0, d1 = st.events[:, 0], st.events[:, 1]

    def arm_moments(s):
        # per arm, sum(y**nu) / exp(nu * top) and the y**nu-weighted mean
        # and variance of log y - top
        nu = np.exp(s)
        weights = np.exp(nu[:, None, None] * centred)[:, None]
        c, l, q = (powers * weights).sum(axis=-1).transpose(1, 2, 0)
        mean = l / c
        return nu, c, mean, q / c - mean * mean

    def h(s):
        nu, _, mean, var = arm_moments(s)
        value = (st.n_events / nu + st.sum_dlogy
                 - (d0 * (tops[:, 0] + mean[0]) + d1 * (tops[:, 1] + mean[1])))
        slope = -st.n_events / nu - nu * (d0 * var[0] + d1 * var[1])
        return value, slope

    lo, hi = np.full(rows, -_LOG_NU_MAX), np.full(rows, _LOG_NU_MAX)
    found = (h(lo)[0] > 0) & (0 > h(hi)[0])
    searching = found.copy()
    s = np.zeros(rows)
    for _ in range(100):
        if not searching.any():
            break
        value, slope = h(s)
        up = value > 0
        lo = np.where(searching & up, s, lo)
        hi = np.where(searching & ~up, s, hi)
        step = -value / slope
        searching &= ~(np.abs(step) <= 1e-12)
        trial = s + step
        s = np.where(searching, np.where((lo < trial) & (trial < hi), trial, 0.5 * (lo + hi)), s)
    found &= ~searching
    nu, c, _, _ = arm_moments(s)
    log_rate0 = np.log(d0) - nu * tops[:, 0] - np.log(c[0])
    log_rate1 = np.log(d1) - nu * tops[:, 1] - np.log(c[1])
    p = np.stack((log_rate0, s, log_rate1 - log_rate0), axis=1)
    sums, nu, k_total, finite = _stacked_hazard_sums(p, st)
    total = sums.sum(axis=-1)
    hess = -total[:, _SECOND_STACKED]
    hess[:, 1, 1] += nu * st.sum_dlogy
    a_cum = sums[:, 0]
    tau2_score = 0.5 * ((st.d - a_cum) ** 2 - a_cum).sum(axis=-1)
    return p, k_total - total[:, 0], hess, tau2_score, found & finite


def _stacked_ascent(score: np.ndarray, hess: np.ndarray):
    """Newton direction, Newton decrement score'(-hess)^-1 score, and
    whether -hess is positive definite, per row.

    The step solves with the Cholesky factor L of -hess, unrolled
    elementwise for the 4 x 4 case, its pivot checks as masks: the
    decrement is |L^-1 score|^2. Only for rows where a pivot is not
    positive, so -hess is not positive definite, does _reflected_steps
    reflect its eigenvalues, so the direction still ascends; such a point
    never counts as converged.
    """
    # the lower triangle, which eigh reads too
    a = -hess
    g0, g1, g2, g3 = score.T
    l00 = np.sqrt(a[:, 0, 0])
    l10, l20, l30 = a[:, 1, 0] / l00, a[:, 2, 0] / l00, a[:, 3, 0] / l00
    p1 = a[:, 1, 1] - l10 * l10
    l11 = np.sqrt(p1)
    l21 = (a[:, 2, 1] - l20 * l10) / l11
    l31 = (a[:, 3, 1] - l30 * l10) / l11
    p2 = a[:, 2, 2] - l20 * l20 - l21 * l21
    l22 = np.sqrt(p2)
    l32 = (a[:, 3, 2] - l30 * l20 - l31 * l21) / l22
    p3 = a[:, 3, 3] - l30 * l30 - l31 * l31 - l32 * l32
    l33 = np.sqrt(p3)
    definite = (a[:, 0, 0] > 0) & (p1 > 0) & (p2 > 0) & (p3 > 0)
    # z = L^-1 score, then direction = L'^-1 z
    z0 = g0 / l00
    z1 = (g1 - l10 * z0) / l11
    z2 = (g2 - l20 * z0 - l21 * z1) / l22
    z3 = (g3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    direction = np.empty(score.shape)
    x3 = direction[:, 3] = z3 / l33
    x2 = direction[:, 2] = (z2 - l32 * x3) / l22
    x1 = direction[:, 1] = (z1 - l21 * x2 - l31 * x3) / l11
    direction[:, 0] = (z0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
    decrement = z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3
    # a row with a non-finite entry stays non-definite, as eigh would leave it
    other = ~definite & np.isfinite(hess).all(axis=(1, 2))
    if other.any():
        direction[other], decrement[other], definite[other] = _reflected_steps(
            score[other], hess[other])
    return direction, decrement, definite


def _reflected_steps(score: np.ndarray, hess: np.ndarray):
    """_stacked_ascent's eigendecomposition branch per row, for rows whose
    Cholesky pivots are not all positive: -hess's eigenvalues reflected to
    their magnitudes (floored relative to the largest)."""
    eig, vec = np.linalg.eigh(-hess)
    definite = eig[:, 0] > 0
    mag = np.abs(eig)
    floor = 1e-8 * np.maximum(mag.max(axis=-1), 1e-300)
    eig = np.where(definite[:, None], eig, np.maximum(mag, floor[:, None]))
    # direction = vec (vec' score / eig), by matrix products per row
    coef = (vec.transpose(0, 2, 1) @ score[..., None])[..., 0] / eig
    direction = (vec @ coef[..., None])[..., 0]
    return direction, (score[:, None] @ direction[..., None])[:, 0, 0], definite


def _stacked_newton(st: _Stack, p0: np.ndarray, value0: np.ndarray, tau2_score0: np.ndarray):
    """Damped Newton ascent of the marginal log-likelihood per row, from
    each row's no-frailty optimum p0 (log-likelihood value0, tau2-score
    tau2_score0) with tau at 0.3.

    The rows run their searches together, each row's Armijo search
    evaluating again only the rows that failed its test, and a row leaves
    at its own stop. Directions come from _stacked_ascent; only a positive
    definite point with a Newton decrement at most 1e-10 counts as a
    maximum (_INTERIOR). A row ends on the boundary (_BOUNDARY) when its
    search heads to tau = 0 and either tau has fallen below 1e-3, or it is
    below 0.15 and the no-frailty optimum is a boundary maximum at least
    as high, where Newton in log tau would only creep down (about 0.49 a
    step). The stop cannot change a fit, since a boundary fit reports the
    no-frailty optimum; from tau = 0.3 it comes about two steps after the
    start. A row fails (_FAILED) when an evaluation is not finite, its line
    search stalls, it leaves the box or the budget is spent.

    Returns how each search ended and the point, log-likelihood, Hessian,
    hazard column and event part it ended at.
    """
    point = np.column_stack((p0, np.full(p0.shape[0], _LOG_TAU_START)))
    value, score, hess, a_cum, k_total, finite = _stacked_derivs(point, st)
    state = (value, score, hess, a_cum, k_total)
    end = np.where(finite, _RUNNING, _FAILED)
    for _ in range(_MAX_NEWTON):
        act = np.flatnonzero(end == _RUNNING)
        log_tau = point[act, 3]
        boundary = (score[act, 3] <= 0) & (log_tau < _LOG_TAU_PROBE) & (
            (log_tau < _LOG_TAU_BOUNDARY) | ((tau2_score0[act] <= 0) & (value[act] <= value0[act])))
        direction, decrement, definite = _stacked_ascent(score[act], hess[act])
        interior = ~boundary & definite & (decrement <= _DECREMENT_TOL)
        end[act[boundary]] = _BOUNDARY
        end[act[interior]] = _INTERIOR
        go = ~(boundary | interior)
        if not go.any():
            return end, point, value, hess, a_cum, k_total
        act, direction = act[go], direction[go]
        # within quadrature error of the optimum the value cannot confirm
        # an ascent, so a near-converged Newton step is taken in full
        near = (definite & (decrement <= _NEAR_DECREMENT))[go]
        base, grad, target = point[act], score[act], value[act]
        biggest = np.abs(direction).max(axis=1)
        big = biggest > _MAX_STEP
        direction[big] *= (_MAX_STEP / biggest[big])[:, None]
        todo = np.arange(act.size)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            b = base[todo]
            trial = b + step * direction[todo]
            trial[:, 3] = np.maximum(trial[:, 3], _LOG_TAU_LOW)
            *nxt, finite = _stacked_derivs(trial, st.take(act[todo]))
            g, moved = grad[todo], trial - b
            dot = (g[:, 0] * moved[:, 0] + g[:, 1] * moved[:, 1] + g[:, 2] * moved[:, 2]
                   + g[:, 3] * moved[:, 3])
            accept = finite & (near[todo] | (nxt[0] >= target[todo] + _ARMIJO * dot))
            to = act[todo[accept]]
            point[to] = trial[accept]
            for array, new in zip(state, nxt):
                array[to] = new[accept]
            todo = todo[~accept]
            if not todo.size:
                break
            step *= 0.5
        end[act[todo]] = _FAILED
        end[act[(np.abs(point[act, 1]) > _LOG_NU_MAX) | (point[act, 3] > _LOG_TAU_MAX)]] = _FAILED
    end[end == _RUNNING] = _FAILED
    return end, point, value, hess, a_cum, k_total


def _stacked_fits(y: np.ndarray, status: np.ndarray, design: Design, mask=None):
    """fit_frailty over a stack of datasets of one design, one per row of y
    and status (rows, animals) laid out as _Stack reads them, with
    _one_row's mask where a row is padded: (converged, beta_hat, se_beta,
    tau2_hat, lambda_hat, nu_hat, log_likelihood), one entry per row.

    Each row gets the no-frailty start, the Newton search
    (_stacked_newton), the 31-node check on interior fits and the checks
    on var(beta_hat) and lambda_hat, as fit_frailty describes them. A row
    that is refused or fails comes back non-converged, with nan estimates
    and log-likelihood -inf.
    """
    rows = y.shape[0]
    result = converged, beta_hat, se_beta, tau2_hat, lambda_hat, nu_hat, log_likelihood = (
        np.zeros(rows, dtype=bool), *np.full((5, rows), np.nan), np.full(rows, -np.inf))
    # the kernels set no errstate of their own: log(0) for a zero hazard and
    # overflowing trial iterates end at their finiteness checks
    with np.errstate(all="ignore"):
        st = _Stack(y, status.astype(np.float64), design.k, mask)
        # outcomes positive and finite, as as_arrays requires, and an event in each arm
        ids = np.flatnonzero(np.isfinite(st.logy).all(axis=(1, 2)) & st.events.all(axis=1))
        st = st.take(ids)
        p0, value0, hess0, tau2_score0, found = _stacked_no_frailty(st)
        ids, st = ids[found], st.take(found)
        if not ids.size:
            return result
        p0, value0, hess0, tau2_score0 = p0[found], value0[found], hess0[found], tau2_score0[found]
        end, point, value, hess, a_cum, k_total = _stacked_newton(st, p0, value0, tau2_score0)

        interior = np.flatnonzero(end == _INTERIOR)
        # quadrature stability at the optimum, on the optimum's hazard column:
        # refuse fits the node count cannot pin down
        check, _, _, _, finite = _stacked_quadrature(st.d[interior], a_cum[interior],
                                                     point[interior, 3], *_CHECK_NODES)
        stable = finite & ~(np.abs(value[interior] - (k_total[interior] + check)) > _QUAD_TOL)
        interior = interior[stable]
        boundary = np.flatnonzero(end == _BOUNDARY)
        done = np.concatenate((interior, boundary))
        # a boundary fit is the no-frailty optimum, with a unit row and column for log tau
        info = np.concatenate((hess[interior], np.zeros((boundary.size, 4, 4))))
        info[interior.size:, :3, :3] = hess0[boundary]
        info[interior.size:, 3, 3] = -1.0
        fitted = np.concatenate((point[interior, :3], p0[boundary]))
        # var(beta_hat) is the Newton decrement of the unit beta vector
        _, var_beta, definite = _stacked_ascent(np.tile(_UNIT_BETA, (done.size, 1)), info)
        good = (definite & (0 < var_beta) & (var_beta < np.inf)
                & (_LOG_FLOAT_MIN < fitted[:, 0]) & (fitted[:, 0] < _LOG_FLOAT_MAX))
        out = ids[done[good]]
        converged[out] = True
        lambda_hat[out], nu_hat[out] = np.exp(fitted[good, :2]).T
        beta_hat[out] = fitted[good, 2]
        se_beta[out] = np.sqrt(var_beta[good])
        tau2_hat[out] = np.concatenate((np.exp(2.0 * point[interior, 3]),
                                        np.zeros(boundary.size)))[good]
        log_likelihood[out] = np.concatenate((value[interior], value0[boundary]))[good]
    return result
