from __future__ import annotations

import math

import numpy as np
import pytest

from xenopower.datagen import SimulatedDataset, gen_frailty, replicate_stream
from xenopower.frailty import fit_frailty, frailty_loglik, wald_test_frailty
from xenopower.types import FrailtyParams


def trapezoid_loglik(lam, nu, beta, tau2, line_index, tx, y, status, n_points=200_001):
    """Independent oracle: integrate each line's likelihood contribution
    over the frailty with a dense trapezoid rule on [-8*tau, 8*tau]."""
    tau = math.sqrt(tau2)
    grid = np.linspace(-8.0 * tau, 8.0 * tau, n_points)
    total = 0.0
    for line in np.unique(line_index):
        sel = line_index == line
        yi, di, ei = y[sel], status[sel], tx[sel] * beta
        log_f = (
            -0.5 * np.log(2 * np.pi * tau2)
            - grid**2 / (2 * tau2)
            + float(np.sum(di * (np.log(lam) + np.log(nu) + (nu - 1) * np.log(yi) + ei)))
            + grid * float(di.sum())
            - float(np.sum(lam * yi**nu * np.exp(ei))) * np.exp(grid)
        )
        total += math.log(np.trapezoid(np.exp(log_f), grid))
    return total


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

        codes, tx, y, status = as_arrays(pilot_survival)
        oracle = trapezoid_loglik(*params, codes, tx, y, status)
        assert frailty_loglik(params, pilot_survival) == pytest.approx(oracle, abs=1e-6)

    def test_quadrature_stable_in_node_count(self, pilot_survival):
        params = (0.0154, 2.1722, -0.8794, 0.0422)
        l15 = frailty_loglik(params, pilot_survival, quad_points=15)
        l31 = frailty_loglik(params, pilot_survival, quad_points=31)
        assert abs(l15 - l31) <= 1e-4

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

    def test_quadrature_agreement_on_fitted_datasets(self):
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.098612, tau2=0.1,
                               censor=True, ct=12.0)
        for r in range(3):
            ds = gen_frailty(4, 3, params, replicate_stream(23, 4, 3, r))
            fit = fit_frailty(ds)
            assert fit.converged
            est = (fit.lambda_hat, fit.nu_hat, fit.beta_hat, fit.tau2_hat)
            l15 = frailty_loglik(est, ds, quad_points=15)
            l31 = frailty_loglik(est, ds, quad_points=31)
            assert abs(l15 - l31) <= 1e-4


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


def frailty_fit_like(beta, se):
    from scipy.stats import norm

    from xenopower.frailty import FrailtyFit

    return FrailtyFit(
        lambda_hat=0.3, nu_hat=1.0, beta_hat=beta, se_beta=se, tau2_hat=0.1,
        p_value=2.0 * float(norm.sf(abs(beta / se))), converged=True,
        log_likelihood=0.0,
    )
