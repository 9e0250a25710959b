from __future__ import annotations

import dataclasses
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from scipy.integrate import trapezoid
from scipy.optimize import minimize
from scipy.special import ndtr, wrightomega

from xenopower import datagen, engine, frailty
from xenopower._data import as_arrays
from xenopower.datagen import SimulatedDataset, gen_frailty, replicate_stream
from xenopower.datasets import pilot_censored
from xenopower.elicit import elicit_frailty_from_pilot
from xenopower.frailty import fit_frailty, frailty_loglik, wald_test_frailty
from xenopower.types import FrailtyParams, ValidationError

MEDIAN_FRAILTY = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=12.0)
# log tau of tau = 0, where the quadrature-based likelihood is the no-frailty one
NO_FRAILTY_LOG_TAU = -math.inf
GOLDEN_FITS = Path(__file__).parent / "golden" / "frailty_fits.json"
# derivative evaluations per golden fit, one row per golden configuration,
# counted with the eigendecomposition Newton step and vectorised no-frailty
# profile of commit bde6d19, and re-counted for the boundary stop at
# tau < 0.15 (it was tau < 0.05): only the tau2_hat = 0 fits changed; a 0
# is a fit refused before the Newton search
GOLDEN_DERIV_CALLS = [
    [3, 3, 3, 3, 3, 3, 3, 6, 3, 3, 7, 3, 6, 5, 3, 4, 3, 3, 7, 7],
    [3, 5, 3, 5, 4, 2, 6, 4, 6, 3, 3, 3, 6, 6, 2, 8, 7, 3, 6, 4],
    [5, 4, 2, 4, 4, 5, 5, 5, 5, 4, 3, 5, 4, 5, 2, 4, 10, 4, 4, 4],
    [2, 2, 6, 2, 2, 6, 3, 4, 3, 8, 3, 5, 6, 5, 6, 6, 3, 6, 9, 7],
    [3, 3, 6, 3, 3, 4, 3, 5, 7, 3, 3, 3, 6, 8, 3, 3, 3, 3, 3, 3],
    [2, 3, 3, 3, 6, 3, 3, 3, 5, 3, 3, 3, 3, 3, 3, 6, 7, 3, 3, 12],
    [0, 0, 3, 0, 8, 3, 12, 20, 0, 6, 3, 0, 3, 8, 13, 0, 24, 0, 0, 3],
    [3, 3, 5, 3, 3, 0, 3, 6, 5, 3, 3, 3, 6, 6, 3, 3, 3, 4, 3, 9],
]


def trapezoid_loglik(lam, nu, beta, tau2, line_index, tx, y, status, n_points=200_001):
    """Independent oracle: integrate each line's likelihood contribution
    over the frailty with a dense trapezoid rule on its mode +- 8*tau.

    With D events and hazard sum A, the log integrand's slope
    D - A*exp(a) - a/tau2 is positive below -tau2*A and negative above
    tau2*D, so a dense grid's argmax on that bracket finds the mode. The
    curvature is at least 1/tau2, so outside the window the integrand is
    below exp(-32) of its peak.
    """
    tau = math.sqrt(tau2)
    total = 0.0
    for line in np.unique(line_index):
        sel = line_index == line
        yi, di, ei = y[sel], status[sel], tx[sel] * beta
        d, a_cum = float(di.sum()), float(np.sum(lam * yi**nu * np.exp(ei)))

        def log_f(a):
            return (-0.5 * np.log(2 * np.pi * tau2) - a**2 / (2 * tau2)
                    + float(np.sum(di * (np.log(lam) + np.log(nu) + (nu - 1) * np.log(yi) + ei)))
                    + a * d - a_cum * np.exp(a))

        bracket = np.linspace(-tau2 * a_cum, tau2 * d, n_points)
        mode = bracket[np.argmax(log_f(bracket))]
        grid = np.linspace(mode - 8.0 * tau, mode + 8.0 * tau, n_points)
        total += math.log(trapezoid(np.exp(log_f(grid)), grid))
    return total


def quadrature_nodes(d, a_cum, tau2):
    """The stacked quadrature's node placement for lines (d, A) on one row,
    read back from its node features exp(node) and node^2/tau2: a node at
    x = 0 sits at the integrand's mode, and one at x = 1 lies sqrt(2) node
    scales above it. Returns (mode, scale, tau2), tau2 as the quadrature
    forms it from log tau."""
    logtau = np.array([0.5 * math.log(tau2)])
    _, _, ea, q, _ = frailty._stacked_quadrature(d[None], a_cum[None], logtau,
                                                 np.array([0.0, 1.0]), np.zeros(2))
    tau2 = float(np.exp(2.0 * logtau)[0])
    nodes = np.copysign(np.sqrt(q[0] * tau2), np.log(ea[0]))
    return nodes[:, 0], (nodes[:, 1] - nodes[:, 0]) / math.sqrt(2.0), tau2


def newton_modes(d, a_cum, tau2):
    """Oracle: per-line maximizers of -a^2/(2 tau2) + d*a - A*exp(a) by
    damped Newton from below the root, the search the closed form
    replaced; None if it does not settle in 100 steps."""
    a = np.minimum(0.0, np.log(np.maximum(d, 0.5) / a_cum))
    for _ in range(100):
        ea = np.exp(a)
        grad = -a / tau2 + d - a_cum * ea
        curv = -1.0 / tau2 - a_cum * ea
        step = np.clip(grad / curv, -4.0, 4.0)
        a = a - step
        if np.max(np.abs(step)) < 1e-10:
            return a
    return None


def central_gradient(f, p, h=1e-5):
    """Central-difference gradient of f at p."""
    out = np.empty(p.size)
    for i in range(p.size):
        step = np.zeros(p.size)
        step[i] = h
        out[i] = (f(p + step) - f(p - step)) / (2.0 * h)
    return out


def central_hessian(f, p, h=1e-4):
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


def group_data(data):
    """The one-row stack that fit_frailty fits to data."""
    design, y, status = as_arrays(data)
    y, status, mask = frailty._one_row(design, y, status)
    return frailty._Stack(y, status, design.k, mask)


def golden_datasets():
    """Every dataset the golden fits were frozen on, as
    ((configuration index, replicate), dataset)."""
    golden = json.loads(GOLDEN_FITS.read_text())
    seed = golden["seed"]
    for i, cell in enumerate(golden["configurations"]):
        n, m, params = cell["n"], cell["m"], FrailtyParams(**cell["params"])
        for r in range(len(cell["fits"])):
            yield (i, r), gen_frailty(n, m, params, replicate_stream(seed, n, m, r))


def reflected_eigen_direction(score, hess):
    """Oracle: the Newton step by eigendecomposition of -hess, with its
    eigenvalues reflected to their magnitudes where it is not positive
    definite; the step the unrolled Cholesky solve replaced."""
    eig, vec = np.linalg.eigh(-hess)
    definite = eig[0] > 0
    if not definite:
        eig = np.maximum(np.abs(eig), 1e-8 * max(float(np.abs(eig).max()), 1e-300))
    direction = vec @ ((vec.T @ score) / eig)
    return direction, float(score @ direction), definite


def vectorised_no_frailty_fit(data):
    """Oracle: the no-frailty stage on the unstacked data, its per-arm
    moments as matrix products, then the stack's hazard sums at its root."""
    design, y, status = as_arrays(data)
    logy = np.log(y)
    arm = np.array((1.0 - design.tx, design.tx))
    events, n_events, sum_dlogy = arm @ status, float(status.sum()), float(status @ logy)
    treated = design.tx == 1
    tops = np.array([logy[~treated].max(), logy[treated].max()])
    centred = logy - tops[treated.astype(np.int64)]
    powers = np.concatenate((arm, arm * centred, arm * centred * centred))

    def arm_moments(s):
        nu = math.exp(s)
        m = powers @ np.exp(nu * centred)
        mean = m[2:4] / m[:2]
        return nu, m[:2], mean, m[4:] / m[:2] - mean * mean

    def h(s):
        nu, _, mean, var = arm_moments(s)
        value = n_events / nu + sum_dlogy - float(events @ (tops + mean))
        slope = -n_events / nu - nu * float(events @ var)
        return value, slope

    lo, hi = -frailty._LOG_NU_MAX, frailty._LOG_NU_MAX
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
    nu, scaled, _, _ = arm_moments(s)
    log_rates = np.log(events) - nu * tops - np.log(scaled)
    p = np.array([log_rates[0], s, log_rates[1] - log_rates[0]])
    st = group_data(data)
    sums, nu, k_total, _ = frailty._stacked_hazard_sums(p[None], st)
    total = sums[0].sum(axis=-1)
    hess = -total[frailty._SECOND_STACKED]
    hess[1, 1] += nu[0] * sum_dlogy
    a_cum = sums[0, 0]
    tau2_score = 0.5 * float(np.sum((st.d[0] - a_cum) ** 2 - a_cum))
    return p, float(k_total[0] - total[0]), hess, tau2_score


def quadrature_loglik(gd, quad_points=15):
    """The fitted log-likelihood of the one-row stack gd in
    (log lam, log nu, beta, log tau) by the quad_points-node rule, or -inf
    where it is not finite."""
    x, logw = frailty._hermite_nodes(quad_points)

    def loglik(q):
        with np.errstate(all="ignore"):
            sums, _, k_total, finite = frailty._stacked_hazard_sums(q[None], gd)
            if not finite[0]:
                return -math.inf
            if q[3] < frailty._LOG_TAU_FLOOR:
                return float(k_total[0] - sums[0, 0].sum())
            total, *_, finite = frailty._stacked_quadrature(gd.d, sums[:, 0], q[3:], x, logw)
        return float(k_total[0] + total[0]) if finite[0] else -math.inf

    return loglik


def fitted_coordinates(params):
    """(lam, nu, beta, tau2) as the fit's (log lam, log nu, beta, log tau)."""
    lam, nu, beta, tau2 = params
    return np.array([math.log(lam), math.log(nu), beta,
                     0.5 * math.log(tau2) if tau2 > 0 else NO_FRAILTY_LOG_TAU])


def bfgs_no_frailty(gd):
    """Oracle: the no-frailty optimum by BFGS with finite-difference
    gradients, from the exponential-rate start."""
    ll = quadrature_loglik(gd)

    def nll3(q):
        return -ll(np.append(q, NO_FRAILTY_LOG_TAU))

    # the first power of each animal, 1 times the stack's mask, leaves out its padding
    total_y = float((gd.powers[0, 0] * np.exp(gd.logy[0])).sum())
    start = np.array([math.log(gd.n_events[0] / total_y), 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        res = minimize(nll3, start, method="BFGS", options={"gtol": 1e-9})
    return res.x, -float(res.fun), lambda q: -nll3(q)


def bfgs_fit(data):
    """Oracle: the quasi-Newton fit with finite-difference gradients and
    Hessian that the analytic Newton fit replaced. Returns
    (converged, log_likelihood, beta_hat, tau2_hat, p_value)."""
    gd = group_data(data)
    ll = quadrature_loglik(gd)
    x3, ll3_value, ll3 = bfgs_no_frailty(gd)
    with np.errstate(invalid="ignore"):
        res = minimize(lambda q: -ll(q), np.append(x3, math.log(0.3)), method="BFGS",
                       options={"maxiter": 500})
    if not math.isfinite(res.fun) or res.nit >= 500:
        return False, -math.inf, math.nan, math.nan, math.nan
    tau2 = math.exp(2.0 * res.x[3])
    if tau2 <= 1e-8:
        tau2, point, value, hess = 0.0, x3, ll3_value, central_hessian(ll3, x3.copy())
    else:
        point, value, hess = res.x, -float(res.fun), central_hessian(ll, res.x.copy())
    try:
        var_beta = float(np.linalg.inv(-hess)[2, 2])
    except np.linalg.LinAlgError:
        var_beta = math.nan
    if not var_beta > 0 or abs(-res.fun - quadrature_loglik(gd, 31)(res.x)) > 1e-4:
        return False, value, math.nan, math.nan, math.nan
    z = float(point[2]) / math.sqrt(var_beta)
    return True, value, float(point[2]), tau2, 2.0 * float(ndtr(-abs(z)))


def small_two_line_dataset():
    """Six animals over two lines, one censored record."""
    return SimulatedDataset(
        line_index=np.array([1, 1, 1, 2, 2, 2]),
        tx=np.array([0, 1, 1, 0, 0, 1]),
        y=np.array([2.3, 4.1, 7.9, 1.2, 3.3, 6.0]),
        status=np.array([1, 1, 0, 1, 1, 1]),
    )


class TestLoglik:
    def test_collapses_to_exponential(self):
        # tau2=0, nu=1, beta=0, no censoring: sum(log lam - lam*y) exactly
        y = np.array([0.5, 1.5, 2.5, 0.9, 1.1, 3.0])
        ds = SimulatedDataset(
            line_index=np.array([1, 1, 1, 2, 2, 2]),
            tx=np.array([0, 1, 0, 1, 0, 1]),
            y=y,
            status=np.ones(6, dtype=np.int64),
        )
        lam = 0.4
        expected = float(np.sum(np.log(lam) - lam * y))
        assert frailty_loglik((lam, 1.0, 0.0, 0.0), ds) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            (0.3, 1.0, -0.5, 0.2),
            (0.1, 1.8, 0.9, 0.05),
            (0.5, 0.7, 0.0, 0.6),
        ],
    )
    def test_matches_trapezoid_oracle_small_dataset(self, params):
        ds = small_two_line_dataset()
        lam, nu, beta, tau2 = params
        oracle = trapezoid_loglik(lam, nu, beta, tau2, ds.line_index, ds.tx, ds.y, ds.status)
        assert frailty_loglik(params, ds) == pytest.approx(oracle, abs=1e-6)

    def test_matches_trapezoid_oracle_pilot(self, pilot_survival):
        # the censored pilot at the reported optimum of its fit
        params = (0.0154, 2.1722, -0.8794, 0.0422)
        from xenopower._data import as_arrays

        design, y, status = as_arrays(pilot_survival)
        oracle = trapezoid_loglik(*params, design.codes, design.tx, y, status)
        assert frailty_loglik(params, pilot_survival) == pytest.approx(oracle, abs=1e-6)

    def test_quadrature_stable_in_node_count(self, pilot_survival):
        q = fitted_coordinates((0.0154, 2.1722, -0.8794, 0.0422))
        gd = group_data(pilot_survival)
        assert abs(quadrature_loglik(gd, 15)(q) - quadrature_loglik(gd, 31)(q)) <= 1e-4

    def test_near_stationary_at_reported_pilot_optimum(self, pilot_survival):
        # central-difference partials on the fitted (log lam, log nu, beta,
        # log tau) coordinates stay small at the reported estimates
        lam, nu, beta, tau2 = 0.0154, 2.1722, -0.8794, 0.0422

        def ll(q):
            return frailty_loglik(
                (math.exp(q[0]), math.exp(q[1]), q[2], math.exp(q[3]) ** 2), pilot_survival
            )

        q0 = np.array([math.log(lam), math.log(nu), beta, math.log(math.sqrt(tau2))])
        h = 1e-4
        for i in range(4):
            qp, qm = q0.copy(), q0.copy()
            qp[i] += h
            qm[i] -= h
            assert abs((ll(qp) - ll(qm)) / (2 * h)) <= 0.5

    def test_rejects_bad_parameters(self, pilot_survival):
        with pytest.raises(ValueError):
            frailty_loglik((0.0, 1.0, 0.0, 0.1), pilot_survival)
        with pytest.raises(ValueError):
            frailty_loglik((0.3, 1.0, 0.0, -0.1), pilot_survival)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index, name", [(0, "lam"), (1, "nu"), (2, "beta"), (3, "tau2")])
    def test_rejects_non_finite_parameters(self, index, name, value):
        # a nan tau2 used to return the no-frailty likelihood, and a
        # non-finite lam, nu or beta to end in "diverged"
        params = [0.3, 1.0, -0.5, 0.2]
        params[index] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            frailty_loglik(tuple(params), small_two_line_dataset())

    @pytest.mark.parametrize("lam", [True, "1"])
    def test_rejects_a_lam_that_is_not_a_number(self, lam, pilot_survival):
        # each was converted by float() before the check, and evaluated at lam = 1
        with pytest.raises(ValidationError, match="^lam must be a number, got"):
            frailty_loglik((lam, 1.0, 0.0, 0.1), pilot_survival)

    @pytest.mark.parametrize("tau2", [0.0, 0.1])
    def test_returns_a_float(self, tau2, pilot_survival):
        # the frailty branch returned a numpy float
        assert type(frailty_loglik((0.3, 1.0, 0.0, tau2), pilot_survival)) is float


class TestClosedFormModes:
    @staticmethod
    def grid(seed, size=400):
        # event counts 0-40, log-uniform tau2 in [1e-10, 400] and A in [e^-12, e^8]
        rng = np.random.default_rng(seed)
        tau2s = np.exp(rng.uniform(math.log(1e-10), math.log(400.0), 40))
        for tau2 in tau2s:
            d = rng.integers(0, 41, size).astype(np.float64)
            yield d, np.exp(rng.uniform(-12.0, 8.0, size)), float(tau2)

    def test_matches_newton_oracle(self):
        for d, a_cum, tau2 in self.grid(3):
            mode, _, tau2 = quadrature_nodes(d, a_cum, tau2)
            oracle = newton_modes(d, a_cum, tau2)
            assert oracle is not None
            assert np.all(np.abs(mode - oracle) <= 1e-10 * np.maximum(1.0, np.abs(oracle)))
            # stationarity a/tau2 + A*exp(a) = d, relative to its terms
            terms = (d, mode / tau2, a_cum * np.exp(mode))
            residual = terms[0] - terms[1] - terms[2]
            assert np.all(np.abs(residual) <= 1e-10 * sum(np.abs(t) for t in terms))

    def test_node_scale_is_inverse_root_curvature(self):
        for d, a_cum, tau2 in self.grid(5):
            mode, scale, tau2 = quadrature_nodes(d, a_cum, tau2)
            direct = 1.0 / np.sqrt(1.0 / tau2 + a_cum * np.exp(mode))
            assert np.all(np.abs(scale - direct) <= 1e-10 * direct)

    def test_zero_hazard_line_has_mode_d_tau2(self):
        # omega = 0: the nodes sit at d*tau2 + sqrt(2 tau2) x, bit for bit
        d = np.arange(0.0, 41.0)
        x, logw = frailty._NODES
        for tau2 in (1e-10, 0.1, 400.0):
            logtau = np.array([0.5 * math.log(tau2)])
            # log(0), and exp(node) overflowing at tau2 = 400 where A * exp(node) is 0 * inf
            with np.errstate(all="ignore"):
                _, _, ea, q, _ = frailty._stacked_quadrature(d[None], np.zeros((1, d.size)),
                                                             logtau, x, logw)
                tau2 = np.exp(2.0 * logtau)[0]
                nodes = (d * tau2)[:, None] + np.sqrt(2.0 * tau2) * x
                assert np.array_equal(ea[0], np.exp(nodes))
            assert np.array_equal(q[0], nodes * nodes / tau2)

    def test_nan_hazard_gives_nan_mode(self):
        mode, _, _ = quadrature_nodes(np.array([1.0, 2.0]), np.array([0.5, math.nan]), 0.1)
        assert math.isfinite(mode[0]) and math.isnan(mode[1])



class TestWrightOmega:
    """frailty._wrightomega against scipy.special.wrightomega, the oracle."""

    # the kernel's branch points, and x < -745, where exp(x) underflows to 0
    EDGES = [-1e5, -800.0, -746.0, -745.0, -50.0, -2.0, 1.0, 1e20, 1e25]

    @classmethod
    def wide_grid(cls):
        rng = np.random.default_rng(35)
        near = [np.nextafter(e, side) for e in cls.EDGES for side in (-np.inf, np.inf)]
        return np.concatenate([
            rng.uniform(-800.0, 800.0, 100_000), rng.uniform(-60.0, 10.0, 100_000),
            -np.geomspace(1.0, 1e25, 20_000), np.geomspace(1e-300, 1e25, 20_000),
            cls.EDGES, near])

    def test_matches_scipy(self):
        x = self.wide_grid()
        got, want = frailty._wrightomega(x), wrightomega(x)
        assert np.isfinite(want).all() and want.min() == 0.0
        # a subnormal omega, at x in about (-745, -708), holds fewer digits:
        # there the two exp's may differ by the smallest subnormal
        assert np.all(np.abs(got - want) <= 4e-15 * want + np.nextafter(0.0, 1.0))

    def test_special_values_are_scipys(self):
        x = np.array([-math.inf, math.inf, math.nan, 1e308, -1e308, 0.0])
        got = frailty._wrightomega(x)
        assert np.array_equal(got, wrightomega(x), equal_nan=True)
        assert got[0] == 0.0 and got[1] == math.inf and math.isnan(got[2])
        assert got[3] == 1e308 and got[4] == 0.0
        assert got[5] == pytest.approx(0.5671432904097838, rel=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_keeps_shape_and_float64(self, scale):
        # scale 1 stays inside [-50, 1e20]; scale 1e3 also reaches the exp(x) tail
        x = scale * np.linspace(-20.0, 20.0, 24).reshape(4, 6)
        out = frailty._wrightomega(x)
        assert out.shape == (4, 6) and out.dtype == np.float64
        assert np.array_equal(out, frailty._wrightomega(x.ravel()).reshape(4, 6))

    def test_no_warning_without_errstate(self):
        x = np.concatenate([self.wide_grid(), [-math.inf, math.inf, math.nan, 1e308, -1e308]])
        assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore",
                               "invalid": "warn"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frailty._wrightomega(x)
            frailty._wrightomega(x[None])


class TestFit:
    def test_pilot_reference_estimates(self, pilot_survival):
        fit = fit_frailty(pilot_survival)
        assert fit.converged
        assert fit.beta_hat == pytest.approx(-0.8794, abs=0.15)
        assert fit.nu_hat == pytest.approx(2.1722, abs=0.35)
        assert 0.0154 / 1.6 <= fit.lambda_hat <= 0.0154 * 1.6
        assert 0.0 <= fit.tau2_hat <= 0.25

    def test_consistency_at_known_truth(self):
        # large balanced experiment generated at beta=0, tau2=0
        params = FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.0, censor=True, ct=8.0)
        ds = gen_frailty(50, 20, params, replicate_stream(77, 50, 20, 0))
        fit = fit_frailty(ds)
        assert fit.converged
        assert fit.beta_hat == pytest.approx(0.0, abs=0.05)
        assert fit.nu_hat == pytest.approx(1.0, abs=0.05)

    def test_zero_events_in_one_arm_never_estimates(self):
        ds = SimulatedDataset(
            line_index=np.array([1, 1, 2, 2, 1, 2]),
            tx=np.array([0, 0, 0, 1, 1, 1]),
            y=np.array([1.0, 2.0, 1.5, 8.0, 8.0, 8.0]),
            status=np.array([1, 1, 1, 0, 0, 0]),
        )
        fit = fit_frailty(ds)
        assert not fit.converged
        assert math.isnan(fit.beta_hat)
        with pytest.raises(ValueError):
            wald_test_frailty(fit, 0.05)

    def test_equal_outcomes_have_no_shape_estimate(self):
        # with every time equal the no-frailty profile rises in log nu without
        # a stationary point, so its root lies outside |log nu| <= log 50
        ds = SimulatedDataset(line_index=np.repeat([1, 2, 3], 4), tx=np.tile([0, 1], 6),
                              y=np.full(12, 2.0), status=np.ones(12, dtype=np.int64))
        assert not frailty._stacked_no_frailty(group_data(ds))[-1][0]
        fit = fit_frailty(ds)
        assert not fit.converged
        assert math.isnan(fit.beta_hat)

    def test_divergent_likelihood_fails_without_numpy_warnings(self):
        # the likelihood diverges on this dataset; no numpy warning may escape
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=4.0)
        ds = gen_frailty(2, 1, params, replicate_stream(7, 2, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_frailty(ds)
        assert not fit.converged

    def test_rate_beyond_float_range_is_not_converged(self):
        # times near 1e-150 put lambda_hat near 1e379, past the float range,
        # and times near 1e150 put it below the smallest normal float, where
        # it would underflow to 0: neither is a usable fit
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=4.0)
        ds = gen_frailty(2, 1, params, replicate_stream(7, 2, 1, 3))
        for scale in (1e-150, 1e150):
            scaled = SimulatedDataset(line_index=ds.line_index, tx=ds.tx, y=ds.y * scale,
                                      status=ds.status)
            fit = fit_frailty(scaled)
            assert not fit.converged
            assert math.isnan(fit.lambda_hat)

    def test_failed_search_carries_no_search_value(self):
        # a diverging search returns the same non-converged fit as every
        # other failure: all estimates nan and the log-likelihood -inf
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=4.0)
        fit = fit_frailty(gen_frailty(2, 1, params, replicate_stream(7, 2, 1, 1)))
        assert not fit.converged
        estimates = (fit.lambda_hat, fit.nu_hat, fit.beta_hat, fit.se_beta, fit.tau2_hat,
                     fit.p_value)
        assert all(math.isnan(v) for v in estimates)
        assert fit.log_likelihood == -math.inf

    def test_extreme_parameters_evaluate_without_numpy_warnings(self):
        # a hazard underflowing to 0 gives every line mode d*tau2 and the
        # Gaussian integral exp(d^2 tau2 / 2); a huge one stays finite until
        # it overflows, and then the evaluation diverges
        ds = small_two_line_dataset()
        lam, nu, tau2 = 1e-320, 0.5, 2.0
        event = ds.status == 1
        d = np.bincount(ds.line_index, weights=ds.status)
        expected = float(np.sum(np.log(lam) + np.log(nu) + (nu - 1.0) * np.log(ds.y[event])))
        expected += 0.5 * tau2 * float(d @ d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = frailty_loglik((lam, nu, 0.0, tau2), ds)
            assert math.isfinite(frailty_loglik((1e300, 5.0, 0.0, tau2), ds))
            with pytest.raises(FloatingPointError, match="diverged"):
                frailty_loglik((1e300, 50.0, 0.0, tau2), ds)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_single_line_is_hard_error(self):
        ds = SimulatedDataset(
            line_index=np.array([1, 1, 1, 1]),
            tx=np.array([0, 0, 1, 1]),
            y=np.array([1.0, 2.0, 3.0, 4.0]),
            status=np.ones(4, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="2 distinct lines"):
            fit_frailty(ds)

    def test_likelihood_dominates_start(self):
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=12.0)
        for r in range(3):
            ds = gen_frailty(5, 4, params, replicate_stream(11, 5, 4, r))
            fit = fit_frailty(ds)
            assert fit.converged
            lam0 = float(ds.status.sum() / ds.y.sum())
            assert fit.log_likelihood >= frailty_loglik((lam0, 1.0, 0.0, 0.09), ds)

    def test_stability_check_reuses_the_optimum_hazard_sums(self, monkeypatch):
        # past the no-frailty stage's one, every hazard sum is a derivative
        # evaluation's: the 31-node check at an interior optimum computes none
        calls = {"_stacked_hazard_sums": 0, "_stacked_derivs": 0}
        for name in calls:
            def spy(*args, _real=getattr(frailty, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(frailty, name, spy)
        params = dataclasses.replace(MEDIAN_FRAILTY, tau2=0.3)
        interior = boundary = 0
        for r in range(40):
            for name in calls:
                calls[name] = 0
            fit = fit_frailty(gen_frailty(6, 5, params, replicate_stream(3, 6, 5, r)))
            if fit.converged:
                assert calls["_stacked_hazard_sums"] == calls["_stacked_derivs"] + 1, r
                interior += fit.tau2_hat > 0
                boundary += fit.tau2_hat == 0
        assert interior >= 10 and boundary >= 1

    def test_quadrature_agreement_on_fitted_datasets(self):
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=12.0)
        for r in range(3):
            ds = gen_frailty(4, 3, params, replicate_stream(23, 4, 3, r))
            fit = fit_frailty(ds)
            assert fit.converged
            q = fitted_coordinates((fit.lambda_hat, fit.nu_hat, fit.beta_hat, fit.tau2_hat))
            gd = group_data(ds)
            assert abs(quadrature_loglik(gd, 15)(q) - quadrature_loglik(gd, 31)(q)) <= 1e-4


class TestFrozenFits:
    def test_match_fits_of_the_newton_mode_search(self):
        r"""Fits equal those of the Newton mode search the closed form
        replaced, frozen in golden/frailty_fits.json by this snippet run
        at commit a8d6795 (stdout to the file)::

            import json
            from xenopower.datagen import gen_frailty, replicate_stream
            from xenopower.datasets import pilot_censored
            from xenopower.elicit import elicit_frailty_from_pilot
            from xenopower.frailty import fit_frailty
            from xenopower.types import FrailtyParams

            median = dict(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                          censor=True, ct=12.0)
            pilot = vars(elicit_frailty_from_pilot(pilot_censored(), censor=True, ct=8.0))
            ct4 = dict(median, ct=4.0)
            cells = [(median, 3, 2), (median, 6, 5), (median, 10, 8), (median, 3, 5),
                     (pilot, 3, 2), (pilot, 6, 5), (ct4, 2, 1), (ct4, 3, 2)]
            blocks = []
            for params, n, m in cells:
                fits = [fit_frailty(gen_frailty(n, m, FrailtyParams(**params),
                                                replicate_stream(11, n, m, r)))
                        for r in range(20)]
                rows = ",\n".join(
                    "  " + json.dumps([f.converged, f.tau2_hat, f.beta_hat, f.se_beta,
                                       f.p_value] if f.converged else [False])
                    for f in fits)
                blocks.append(f' {{"n": {n}, "m": {m}, "params": {json.dumps(params)},'
                              f' "fits": [\n{rows}]}}')
            print('{"seed": 11, "configurations": [\n' + ",\n".join(blocks) + "]}")
        """
        golden = json.loads(GOLDEN_FITS.read_text())
        seed = golden["seed"]
        for cell in golden["configurations"]:
            n, m, params = cell["n"], cell["m"], FrailtyParams(**cell["params"])
            for r, frozen in enumerate(cell["fits"]):
                fit = fit_frailty(gen_frailty(n, m, params, replicate_stream(seed, n, m, r)))
                where = (cell["params"], n, m, r)
                assert fit.converged == frozen[0], where
                if not fit.converged:
                    continue
                _, tau2_hat, beta_hat, se_beta, p_value = frozen
                assert (fit.tau2_hat == 0) == (tau2_hat == 0), where
                assert abs(fit.p_value - p_value) <= 1e-9, where
                assert fit.beta_hat == pytest.approx(beta_hat, rel=1e-8, abs=0), where
                assert fit.se_beta == pytest.approx(se_beta, rel=1e-8, abs=0), where


    def test_newton_path_is_unchanged(self, monkeypatch):
        # every golden fit makes as many derivative evaluations as the
        # eigendecomposition step did, so it takes the same Newton path
        calls = []

        def spy(*args, _real=frailty._stacked_derivs):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(frailty, "_stacked_derivs", spy)
        counts = [[] for _ in GOLDEN_DERIV_CALLS]
        for (i, _), ds in golden_datasets():
            calls.clear()
            fit_frailty(ds)
            counts[i].append(len(calls))
        assert counts == GOLDEN_DERIV_CALLS

    def test_boundary_stop_at_tau_0_15_changes_no_fit(self, monkeypatch):
        # the search stops for the boundary once tau < 0.15 (it stopped at
        # tau < 0.05): the fits are those of the later stop, with no more
        # derivative evaluations, over tau2 from 0 to 0.3 and either shape
        calls = []

        def spy(*args, _real=frailty._stacked_derivs):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(frailty, "_stacked_derivs", spy)
        datasets = [ds for _, ds in golden_datasets()] + [pilot_censored()]
        for (n, m), tau2, nu, ct in itertools.product(
                [(2, 1), (2, 2), (3, 2), (3, 3), (6, 5)], [0.0, 0.05, 0.3], [0.5, 2.0],
                [None, 4.0]):
            params = FrailtyParams(lam=0.2888113, nu=nu, beta=-1.098612, tau2=tau2,
                                   censor=ct is not None, ct=ct)
            datasets += [gen_frailty(n, m, params, replicate_stream(23, n, m, r))
                         for r in range(10)]

        def fits_and_calls():
            out = []
            for ds in datasets:
                calls.clear()
                out.append((repr(fit_frailty(ds)), len(calls)))
            return out

        new = fits_and_calls()
        monkeypatch.setattr(frailty, "_LOG_TAU_PROBE", math.log(0.05))
        old = fits_and_calls()
        assert [fit for fit, _ in new] == [fit for fit, _ in old]
        assert all(a <= b for (_, a), (_, b) in zip(new, old))
        # the stop is reached early on most boundary fits
        saved = [b - a for (fit, a), (_, b) in zip(new, old) if "tau2_hat=0.0," in fit]
        assert sum(d > 0 for d in saved) > len(saved) // 2

    @pytest.mark.parametrize("r, boundary", [(0, True), (1, False)])
    def test_log_likelihood_is_a_float_on_either_branch(self, r, boundary):
        # golden configuration 1: cell (6,5) at the median parameters
        ds = next(ds for where, ds in golden_datasets() if where == (1, r))
        fit = fit_frailty(ds)
        assert fit.converged and (fit.tau2_hat == 0) == boundary
        assert type(fit.log_likelihood) is float


def oracle_datasets(source):
    if source == "pilot":
        return [pilot_censored()]
    n, m = {"n3m2": (3, 2), "n10m8": (10, 8)}[source]
    return [gen_frailty(n, m, MEDIAN_FRAILTY, replicate_stream(31, n, m, r)) for r in range(3)]


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("tau", [0.3, 0.01], ids=["tau0.3", "small_tau"])
    @pytest.mark.parametrize("source", ["n3m2", "n10m8", "pilot"])
    def test_match_finite_differences(self, source, tau):
        # random points around the no-frailty optimum; the fixed-node score
        # and information against differences of the fitted likelihood
        rng = np.random.default_rng(7)
        for ds in oracle_datasets(source):
            gd = group_data(ds)
            f = quadrature_loglik(gd)
            centre = bfgs_no_frailty(gd)[0]
            for _ in range(3):
                p = np.append(centre + rng.normal(0.0, 0.2, 3), math.log(tau) + rng.normal(0.0, 0.2))
                value, score, hess = (a[0] for a in frailty._stacked_derivs(p[None], gd)[:3])
                assert value == pytest.approx(f(p), abs=1e-10)
                assert np.all(np.abs(score - central_gradient(f, p))
                              <= 1e-6 * np.maximum(1.0, np.abs(score)))
                assert np.all(np.abs(hess - central_hessian(f, p))
                              <= 1e-4 * np.maximum(1.0, np.abs(hess)))


class TestNoFrailtyStage:
    @pytest.mark.parametrize("source", ["n3m2", "n10m8", "pilot"])
    def test_matches_bfgs_oracle(self, source):
        for ds in oracle_datasets(source):
            gd = group_data(ds)
            p, value, hess, tau2_score, _ = (a[0] for a in frailty._stacked_no_frailty(gd))
            q, q_value, ll3 = bfgs_no_frailty(gd)
            assert np.max(np.abs(p - q)) <= 1e-6
            # the exact optimum is never below the search's
            assert value >= q_value - 1e-12
            assert value == pytest.approx(ll3(p), abs=1e-9)
            assert np.all(np.abs(hess - central_hessian(ll3, p))
                          <= 1e-4 * np.maximum(1.0, np.abs(hess)))
            # the tau2-score at tau2 = 0, against a forward difference in tau2
            u = 1e-7
            forward = (quadrature_loglik(gd)(np.append(p, 0.5 * math.log(u))) - value) / u
            assert tau2_score == pytest.approx(forward, rel=1e-4, abs=1e-6)


def ascent(score, hess):
    """The stacked Newton step for one score and Hessian."""
    with np.errstate(all="ignore"):
        return tuple(a[0] for a in frailty._stacked_ascent(score[None], hess[None]))


class TestCholeskyStep:
    @staticmethod
    def assert_matches_oracle(score, hess, where=None, cond=1.0):
        direction, decrement, definite = ascent(score, hess)
        ref_direction, ref_decrement, ref_definite = reflected_eigen_direction(score, hess)
        assert definite == ref_definite, where
        if not definite:
            # the fallback is the oracle's own computation
            assert np.array_equal(direction, ref_direction), where
            assert decrement == ref_decrement, where
            return
        # 1e-12 up to condition 1e3; beyond it the rounding of either solve
        # grows with the condition number
        tol = 1e-12 * max(1.0, cond / 1e3)
        scale = float(np.abs(ref_direction).max())
        assert float(np.abs(direction - ref_direction).max()) <= tol * scale, where
        assert abs(decrement - ref_decrement) <= tol * ref_decrement, where

    @staticmethod
    def random_hessians(seed, smallest, size=300):
        # -hess = Q diag(eig) Q' with eigenvalues spread over six decades
        # and the first set to `smallest` times the largest
        rng = np.random.default_rng(seed)
        for _ in range(size):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            eig = np.exp(rng.uniform(math.log(1e-6), 0.0, 4)) * 10.0 ** rng.uniform(-2, 4)
            eig[0] = smallest * eig.max()
            yield rng.normal(size=4), -(q * eig) @ q.T, eig

    @pytest.mark.parametrize("smallest", [1e-1, 1e-3, 1e-9], ids=["spd", "cond1e3", "near_singular"])
    def test_definite_matches_eigen_oracle(self, smallest):
        for score, hess, eig in self.random_hessians(1, smallest):
            assert ascent(score, hess)[2]
            self.assert_matches_oracle(score, hess, cond=float(eig.max() / eig.min()))

    @pytest.mark.parametrize("smallest", [-1e-1, -1e-9, 0.0], ids=["indefinite", "near_singular", "singular"])
    def test_non_definite_falls_back_to_reflection(self, smallest):
        for score, hess, _ in self.random_hessians(2, smallest):
            if smallest == 0.0:
                # exactly singular: a zero last row and column
                hess[3, :] = hess[:, 3] = 0.0
            assert not ascent(score, hess)[2]
            self.assert_matches_oracle(score, hess)

    def test_matches_eigen_oracle_at_golden_newton_iterates(self, monkeypatch):
        steps = []

        def spy(score, hess, _real=frailty._stacked_ascent):
            steps.extend(zip(score.copy(), hess.copy()))
            return _real(score, hess)

        monkeypatch.setattr(frailty, "_stacked_ascent", spy)
        for where, ds in golden_datasets():
            start = len(steps)
            fit_frailty(ds)
            for score, hess in steps[start:]:
                self.assert_matches_oracle(score, hess, where)
        assert len(steps) > 500
        assert 0 < sum(not reflected_eigen_direction(*step)[2] for step in steps) < len(steps)


class TestStackedNoFrailtyProfile:
    def test_matches_vectorised_profile(self):
        # the golden datasets and the bundled censored pilot
        compared = 0
        for where, ds in [(None, pilot_censored()), *golden_datasets()]:
            gd = group_data(ds)
            if not gd.events.all():
                continue
            with np.errstate(all="ignore"):
                *got, found = (a[0] for a in frailty._stacked_no_frailty(gd))
                ref = vectorised_no_frailty_fit(ds)
            assert found == (ref is not None), where
            if ref is None:
                continue
            compared += 1
            for a, b in zip(got, ref):
                a, b = np.asarray(a), np.asarray(b)
                assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))), where
        assert compared >= 150


class TestNearBoundary:
    def test_collapsed_fit_takes_se_from_reduced_model(self):
        # the quasi-Newton fit stopped at tau2_hat 2.4e-8 here and took
        # se_beta 0.0985 from a Hessian whose log tau row was rounding
        # noise; the no-frailty model's information gives 0.3135
        ds = gen_frailty(6, 5, MEDIAN_FRAILTY, replicate_stream(5, 6, 5, 38))
        fit = fit_frailty(ds)
        q, _, ll3 = bfgs_no_frailty(group_data(ds))
        se = math.sqrt(float(np.linalg.inv(-central_hessian(ll3, q))[2, 2]))
        assert fit.converged
        assert fit.se_beta == pytest.approx(se, rel=1e-3)

    def test_se_matches_inverse_information_on_golden_fits(self, monkeypatch):
        # the oracle inverts the information the fit ended on: the final
        # Newton iterate's, or at the boundary the no-frailty model's
        ends = {}
        for name in ("_stacked_newton", "_stacked_no_frailty"):
            def spy(*args, _real=getattr(frailty, name), _name=name):
                ends[_name] = _real(*args)
                return ends[_name]

            monkeypatch.setattr(frailty, name, spy)
        boundary = 0
        for where, ds in golden_datasets():
            ends.clear()
            fit = fit_frailty(ds)
            if not fit.converged:
                continue
            if fit.tau2_hat == 0:
                boundary += 1
                hess = ends["_stacked_no_frailty"][2][0]
            else:
                hess = ends["_stacked_newton"][3][0]
            var_beta = float(np.linalg.inv(-hess)[2, 2])
            assert fit.se_beta ** 2 == pytest.approx(var_beta, rel=1e-12, abs=0), where
        assert 0 < boundary < 150  # both kinds of exit are checked

    def test_information_not_positive_definite_is_not_converged(self, monkeypatch):
        # a boundary fit whose no-frailty information has lost definiteness
        # in log nu, though its beta element of the inverse stays positive
        def indefinite(st, _real=frailty._stacked_no_frailty):
            p, value, hess, tau2_score, found = _real(st)
            hess = hess.copy()
            hess[:, 1, 1] = -hess[:, 1, 1]
            return p, value, hess, tau2_score, found

        ds = gen_frailty(6, 5, MEDIAN_FRAILTY, replicate_stream(5, 6, 5, 38))
        assert fit_frailty(ds).tau2_hat == 0
        monkeypatch.setattr(frailty, "_stacked_no_frailty", indefinite)
        _, _, hess, _, _ = indefinite(group_data(ds))
        assert np.linalg.inv(-hess[0])[2, 2] > 0
        assert not fit_frailty(ds).converged

    def test_hopeless_fit_fails_within_budget(self, monkeypatch):
        # the replicate whose likelihood diverges (see TestFit); every
        # likelihood or derivative evaluation is counted
        calls = []

        def derivs(*args, _real=frailty._stacked_derivs):
            calls.append(1)
            return _real(*args)

        def check(d, a_cum, logtau, x, logw, _real=frailty._stacked_quadrature):
            # the 31-node check, the one evaluation made outside _stacked_derivs
            if x is frailty._CHECK_NODES[0] and len(d):
                calls.append(1)
            return _real(d, a_cum, logtau, x, logw)

        monkeypatch.setattr(frailty, "_stacked_derivs", derivs)
        monkeypatch.setattr(frailty, "_stacked_quadrature", check)
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=4.0)
        ds = gen_frailty(2, 1, params, replicate_stream(7, 2, 1, 1))
        fit = fit_frailty(ds)
        assert not fit.converged
        assert 0 < len(calls) <= 60


class TestAgainstQuasiNewtonOracle:
    @pytest.mark.slow
    @pytest.mark.parametrize("n, m", [(3, 2), (6, 5)])
    def test_fits_agree_with_bfgs_fits(self, n, m):
        # 300 replicates at the median parameters: the Newton fit never ends
        # lower, agrees on beta_hat where both are interior, converges
        # wherever the oracle does, and flips a decision only where the two
        # disagree on tau2_hat = 0
        interior = 0
        for r in range(300):
            ds = gen_frailty(n, m, MEDIAN_FRAILTY, replicate_stream(5, n, m, r))
            fit = fit_frailty(ds)
            converged, value, beta, tau2, p_value = bfgs_fit(ds)
            if not converged:
                continue
            assert fit.converged, r
            assert fit.log_likelihood >= value - 1e-6, r
            if fit.tau2_hat > 0 and tau2 > 0:
                interior += 1
                assert abs(fit.beta_hat - beta) <= 1e-4, r
            if (fit.p_value < 0.05) != (p_value < 0.05):
                assert (fit.tau2_hat == 0) != (tau2 == 0), r
        assert interior >= 100


def engine_stack(params, n, m, seed, r_start, r_stop):
    """The y, status and design a default frailty chunk stacks for
    replicates r_start..r_stop-1 of cell (n, m), and the chunk's result;
    status is None where every record is an event."""
    stacked = []

    def spy(params, design, streams, rows):
        y, status, censoring = simulate(params, design, streams, rows)
        stacked.append((y.copy(), None if status is None else status.copy(), design))
        return y, status, censoring

    simulate = engine._simulate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_simulate", spy)
        result = engine._run_chunk((params, n, m, 0.05, seed, r_start, r_stop))
    (stack,) = stacked
    return stack + (result,)


# the stack's test set: every frailty-grid model the benchmark and the
# engine tests run, 32 replicates of each small, mid and large cell
STACK_MODELS = {
    "median": MEDIAN_FRAILTY,
    "pilot": elicit_frailty_from_pilot(pilot_censored(), censor=True, ct=8.0),
    "null": dataclasses.replace(MEDIAN_FRAILTY, beta=0.0),
    "ct4": dataclasses.replace(MEDIAN_FRAILTY, ct=4.0),
    "uncensored": dataclasses.replace(MEDIAN_FRAILTY, nu=1.7, censor=False, ct=None),
}
STACK_CELLS = [(2, 1), (3, 2), (6, 5), (10, 8)]


class TestStackedFits:
    @pytest.mark.parametrize("name", ["median", "ct4", "uncensored"])
    def test_stacked_draws_are_gen_frailty_draws(self, name):
        # replicates 500..529 cross the 512-replicate block of stream keys
        params = STACK_MODELS[name]
        for n, m in [(2, 1), (3, 2), (10, 8)]:
            y, status, _, (_, _, censoring) = engine_stack(params, n, m, 77, 500, 530)
            assert (status is None) == (not params.censor)
            for i, r in enumerate(range(500, 530)):
                data = gen_frailty(n, m, params, replicate_stream(77, n, m, r))
                assert y[i].tobytes() == data.y.tobytes(), (n, m, r)
                if status is None:
                    assert data.status.all(), (n, m, r)
                else:
                    assert status[i].tobytes() == data.status.tobytes(), (n, m, r)
                assert censoring[i] == data.censoring_fraction, (n, m, r)

    @pytest.mark.parametrize("name", ["median", "ct4"])
    @pytest.mark.parametrize("n, m", [(3, 2), (10, 8)])
    def test_a_row_does_not_depend_on_its_stack(self, name, n, m):
        y, status, design, _ = engine_stack(STACK_MODELS[name], n, m, 11, 0, 32)
        whole = frailty._stacked_fits(y, status, design)
        for r0, r1 in [(5, 17), (31, 32)] + [(r, r + 1) for r in range(32)]:
            part = frailty._stacked_fits(y[r0:r1], status[r0:r1], design)
            for got, want in zip(part, whole):
                assert got.tobytes() == want[r0:r1].tobytes(), (r0, r1)

    def test_rows_fit_frailty_refuses_are_not_converged(self):
        y, status, design, _ = engine_stack(MEDIAN_FRAILTY, 3, 2, 11, 0, 8)
        y[1, 0], y[2, 3], status[3, 6:] = 0.0, np.inf, 0  # row 3: no treated events
        converged = frailty._stacked_fits(y, status, design)[0]
        assert not converged[1:4].any()
        whole = frailty._stacked_fits(y[[0, 4, 5, 6, 7]], status[[0, 4, 5, 6, 7]], design)[0]
        assert converged[[0, 4, 5, 6, 7]].tolist() == whole.tolist()

    def test_a_lone_fit_equals_its_chunk_row(self):
        # fit_frailty lays its dataset out as one row of a stack, which for
        # generated data needs no padding: it equals the dataset's row of a
        # 32-row chunk bit for bit
        n_converged = 0
        for name, params in STACK_MODELS.items():
            for n, m in STACK_CELLS:
                y, status, design, _ = engine_stack(params, n, m, 11, 0, 32)
                if status is None:
                    status = np.ones(y.shape)
                rows = np.column_stack(frailty._stacked_fits(y, status, design))
                for r in range(32):
                    fit = fit_frailty(gen_frailty(n, m, params, replicate_stream(11, n, m, r)))
                    lone = np.array([fit.converged, fit.beta_hat, fit.se_beta, fit.tau2_hat,
                                     fit.lambda_hat, fit.nu_hat, fit.log_likelihood])
                    assert lone.tobytes() == rows[r].tobytes(), (name, n, m, r)
                    n_converged += fit.converged
        assert n_converged >= 560

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_stacked_tests_are_the_lone_fits_tests(self, alpha):
        # t is |beta_hat/se| of the row's lone fit_frailty, nan where it does
        # not converge; row 1 has an outcome of 0, which as_arrays refuses
        n_converged = 0
        for name in ("median", "pilot", "uncensored"):
            for n, m in [(2, 1), (3, 2), (6, 5)]:
                y, status, design, _ = engine_stack(STACK_MODELS[name], n, m, 11, 0, 32)
                y[1, 0] = 0.0
                rejected, converged, t = frailty._stacked_tests(y, status, design, alpha)
                line, tx, events = datagen._design_arrays(n, m)[:3]
                for r in range(32):
                    data = SimulatedDataset(line_index=line, tx=tx, y=y[r],
                                            status=events if status is None else status[r])
                    try:
                        fit = fit_frailty(data)
                    except ValueError:
                        fit = frailty._NOT_CONVERGED
                    assert converged[r] == fit.converged, (name, n, m, r)
                    if fit.converged:
                        assert t[r] == abs(fit.beta_hat / fit.se_beta), (name, n, m, r)
                        assert rejected[r] == wald_test_frailty(fit, alpha), (name, n, m, r)
                    else:
                        assert math.isnan(t[r]) and not rejected[r], (name, n, m, r)
                    n_converged += fit.converged
        assert n_converged >= 250


def unbalanced_datasets():
    """Generated datasets with about a quarter of the animals dropped and
    the rest shuffled, so that arms differ in size and lines are not
    contiguous, and one whose first line has lost its treated arm."""
    rng = np.random.default_rng(17)
    params = dataclasses.replace(MEDIAN_FRAILTY, tau2=0.3)
    out = []
    for r in range(24):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        ds = gen_frailty(n, m, params, replicate_stream(13, n, m, r))
        kept = rng.permutation(np.flatnonzero(rng.random(ds.y.size) > 0.25))
        out.append(SimulatedDataset(line_index=ds.line_index[kept], tx=ds.tx[kept],
                                    y=ds.y[kept], status=ds.status[kept]))
    ds = gen_frailty(4, 3, params, replicate_stream(13, 4, 3, 0))
    kept = rng.permutation(np.flatnonzero((ds.line_index != 1) | (ds.tx == 0)))
    out.append(SimulatedDataset(line_index=ds.line_index[kept], tx=ds.tx[kept],
                                y=ds.y[kept], status=ds.status[kept]))
    return out


class TestUnbalancedData:
    def test_datasets_need_padding(self):
        datasets = unbalanced_datasets()
        padded = [int((frailty._one_row(*as_arrays(ds))[2] == 0).sum()) for ds in datasets]
        # the one-arm line pads its three treated places at least
        assert sum(map(bool, padded)) >= 20 and padded[-1] >= 3

    @pytest.mark.parametrize("params", [(0.3, 1.0, -0.5, 0.2), (0.25, 1.3, -0.8, 0.5),
                                        (0.1, 1.8, 0.9, 0.05)])
    def test_loglik_matches_trapezoid_oracle(self, params):
        for i, ds in enumerate(unbalanced_datasets()):
            design, y, status = as_arrays(ds)
            oracle = trapezoid_loglik(*params, design.codes, design.tx, y, status)
            assert frailty_loglik(params, ds) == pytest.approx(oracle, abs=1e-6), i

    def test_fits_agree_with_bfgs_fits(self):
        # as TestAgainstQuasiNewtonOracle checks balanced data
        interior = 0
        for i, ds in enumerate(unbalanced_datasets()):
            fit = fit_frailty(ds)
            converged, value, beta, tau2, p_value = bfgs_fit(ds)
            if not converged:
                continue
            assert fit.converged, i
            assert fit.log_likelihood >= value - 1e-6, i
            if fit.tau2_hat > 0 and tau2 > 0:
                interior += 1
                assert abs(fit.beta_hat - beta) <= 1e-4, i
            if (fit.p_value < 0.05) != (p_value < 0.05):
                assert (fit.tau2_hat == 0) != (tau2 == 0), i
        assert interior >= 5


class TestInvariances:
    def test_time_rescaling_equivariance(self):
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=12.0)
        ds = gen_frailty(5, 4, params, replicate_stream(11, 5, 4, 0))
        c = 3.7
        scaled = SimulatedDataset(line_index=ds.line_index, tx=ds.tx, y=ds.y * c,
                                  status=ds.status)
        f1, f2 = fit_frailty(ds), fit_frailty(scaled)
        assert f2.nu_hat == pytest.approx(f1.nu_hat, abs=1e-4)
        assert f2.beta_hat == pytest.approx(f1.beta_hat, abs=1e-4)
        assert f2.tau2_hat == pytest.approx(f1.tau2_hat, abs=1e-4)
        assert f2.p_value == pytest.approx(f1.p_value, abs=1e-4)
        assert f2.lambda_hat == pytest.approx(f1.lambda_hat / c**f1.nu_hat, rel=1e-4)

    def test_arm_label_antisymmetry(self):
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=12.0)
        ds = gen_frailty(5, 4, params, replicate_stream(11, 5, 4, 0))
        swapped = SimulatedDataset(line_index=ds.line_index, tx=1 - ds.tx, y=ds.y,
                                   status=ds.status)
        f1, f2 = fit_frailty(ds), fit_frailty(swapped)
        assert f2.beta_hat == pytest.approx(-f1.beta_hat, abs=1e-6)
        assert abs(f2.beta_hat / f2.se_beta) == pytest.approx(
            abs(f1.beta_hat / f1.se_beta), abs=1e-6
        )


class TestWaldTest:
    def test_large_ratio_rejects(self):
        fit = frailty_fit_like(beta=-0.8794, se=0.2)
        assert wald_test_frailty(fit, 0.05)

    def test_null_point_never_rejects(self):
        fit = frailty_fit_like(beta=0.0, se=0.5)
        assert fit.p_value == pytest.approx(1.0)
        assert not wald_test_frailty(fit, 0.05)

    def test_decides_as_the_ndtr_p_value_on_the_smoke_grid(self):
        # the benchmark's frailty-grid cells at the median parameters: the
        # normal critical value decides as 2 ndtr(-|z|) < alpha did, and
        # p_value, from math.erfc, stays within 2e-14 of 2 ndtr(-|z|)
        # (1.1e-14 over 1,350 fits of these cells)
        decisions = {0.01: [], 0.05: [], 0.2: []}
        for n, m in itertools.product((3, 6, 10), (2, 5, 8)):
            for r in range(20):
                fit = fit_frailty(gen_frailty(n, m, MEDIAN_FRAILTY, replicate_stream(1, n, m, r)))
                if not fit.converged:
                    continue
                want = 2.0 * float(ndtr(-abs(fit.beta_hat / fit.se_beta)))
                assert abs(fit.p_value - want) <= 2e-14 * want, (n, m, r)
                for alpha, decided in decisions.items():
                    assert wald_test_frailty(fit, alpha) == (want < alpha), (n, m, r, alpha)
                    decided.append(want < alpha)
        for decided in decisions.values():
            assert len(decided) >= 170 and 0 < sum(decided) < len(decided)

    def test_fit_with_scipys_omega_agrees(self, monkeypatch):
        datasets = [gen_frailty(n, m, MEDIAN_FRAILTY, replicate_stream(1, n, m, r))
                    for n, m in ((3, 2), (6, 5), (10, 8)) for r in range(4)]
        want = [fit_frailty(ds) for ds in datasets]
        assert sum(fit.converged and fit.tau2_hat > 0 for fit in want) >= 4
        monkeypatch.setattr(frailty, "_wrightomega", wrightomega)
        for ds, expected in zip(datasets, want):
            fit = fit_frailty(ds)
            assert fit.converged == expected.converged
            if not fit.converged:
                continue
            for name in ("lambda_hat", "nu_hat", "beta_hat", "se_beta", "tau2_hat", "p_value",
                         "log_likelihood"):
                value = getattr(fit, name)
                assert value == pytest.approx(getattr(expected, name), rel=1e-12), name
            assert wald_test_frailty(fit, 0.05) == wald_test_frailty(expected, 0.05)


def frailty_fit_like(beta, se):
    from scipy.stats import norm

    from xenopower.frailty import FrailtyFit

    return FrailtyFit(
        lambda_hat=0.3, nu_hat=1.0, beta_hat=beta, se_beta=se, tau2_hat=0.1,
        p_value=2.0 * float(norm.sf(abs(beta / se))), converged=True,
        log_likelihood=0.0,
    )
