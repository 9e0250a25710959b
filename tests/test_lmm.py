from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import arm_means_log
from xenopower.datagen import SimulatedDataset, gen_anova, replicate_stream
from xenopower.lmm import fit_lmm, restricted_loglik_at, wald_test_lmm
from xenopower.types import AnovaParams, PilotDataset, PilotRecord


def brute_force_reml(line_index, tx, y):
    """Independent textbook REML: build V0 = I + theta*ZZ' explicitly and
    grid-search the restricted likelihood over 10,000 log-theta points
    (plus the theta=0 boundary)."""
    logy = np.log(np.asarray(y, dtype=float))
    codes = np.unique(np.asarray(line_index), return_inverse=True)[1]
    N = logy.size
    X = np.column_stack([np.ones(N), np.asarray(tx, dtype=float)])
    Z = np.eye(int(codes.max()) + 1)[codes]

    def criterion(theta):
        V0 = np.eye(N) + theta * Z @ Z.T
        V0inv = np.linalg.inv(V0)
        XtVX = X.T @ V0inv @ X
        beta = np.linalg.solve(XtVX, X.T @ V0inv @ logy)
        r = logy - X @ beta
        rss = float(r @ V0inv @ r)
        sigma2 = rss / (N - 2)
        _, ld_v0 = np.linalg.slogdet(V0)
        _, ld_x = np.linalg.slogdet(XtVX)
        ll = -0.5 * ((N - 2) * (math.log(2 * math.pi * sigma2) + 1.0) + ld_v0 + ld_x)
        return ll, beta, sigma2

    thetas = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-8), math.log(1e6), 10_000))])
    values = [criterion(t)[0] for t in thetas]
    best = int(np.argmax(values))
    ll, beta, sigma2 = criterion(thetas[best])
    return thetas[best], beta, sigma2, ll


class TestPilotFit:
    def test_reproduces_reference_estimates(self, pilot_lognormal):
        fit = fit_lmm(pilot_lognormal)
        assert fit.converged
        assert fit.beta_hat == pytest.approx(0.7299, rel=0.01)
        assert fit.tau2_hat == pytest.approx(0.0332, rel=0.01)
        assert fit.sigma2_hat == pytest.approx(0.386, rel=0.01)

    def test_denominator_df_rule(self, pilot_lognormal):
        # observations minus lines minus the within-line fixed effect
        fit = fit_lmm(pilot_lognormal)
        assert fit.df == 18 - 3 - 1

    def test_matches_brute_force_grid_search(self, pilot_lognormal):
        fit = fit_lmm(pilot_lognormal)
        ids = [r.id for r in pilot_lognormal.rows]
        tx = [r.tx for r in pilot_lognormal.rows]
        y = [r.y for r in pilot_lognormal.rows]
        _, beta, sigma2, ll = brute_force_reml(ids, tx, y)
        assert fit.beta_hat == pytest.approx(beta[1], abs=1e-6)
        assert fit.log_restricted_likelihood == pytest.approx(ll, abs=1e-5)


class TestAgainstOracles:
    @pytest.mark.parametrize("seed,n,m", [(3, 4, 3), (11, 6, 2), (29, 3, 5)])
    def test_generated_data_matches_grid_search(self, seed, n, m):
        params = AnovaParams(beta0=0.5, beta=0.7, tau2=0.15, sigma2=0.4)
        ds = gen_anova(n, m, params, replicate_stream(seed, n, m, 0))
        fit = fit_lmm(ds)
        _, beta, _, ll = brute_force_reml(ds.line_index, ds.tx, ds.y)
        assert fit.beta_hat == pytest.approx(beta[1], abs=1e-6)
        assert fit.log_restricted_likelihood >= ll - 1e-8

    def test_balanced_matches_expected_mean_squares(self):
        # under balance with interior theta, REML coincides with the
        # classical moment estimators
        params = AnovaParams(beta0=1.0, beta=0.6, tau2=0.3, sigma2=0.5)
        n, m = 6, 4
        ds = gen_anova(n, m, params, replicate_stream(42, n, m, 0))
        fit = fit_lmm(ds)
        assert fit.tau2_hat > 0
        logy = np.log(ds.y)
        J = 2 * m
        X = np.column_stack([np.eye(n)[ds.line_index - 1], ds.tx])
        coef, *_ = np.linalg.lstsq(X, logy, rcond=None)
        rss = float(((logy - X @ coef) ** 2).sum())
        mse = rss / (logy.size - n - 1)
        line_means = np.array([logy[ds.line_index == i + 1].mean() for i in range(n)])
        msb = J * float(((line_means - logy.mean()) ** 2).sum()) / (n - 1)
        assert fit.sigma2_hat == pytest.approx(mse, abs=1e-6)
        assert fit.tau2_hat == pytest.approx((msb - mse) / J, abs=1e-6)

    def test_objective_dominates_boundary_candidates(self, pilot_lognormal):
        fit = fit_lmm(pilot_lognormal)
        assert fit.log_restricted_likelihood >= restricted_loglik_at(pilot_lognormal, 0.0) - 1e-8
        assert fit.log_restricted_likelihood >= restricted_loglik_at(pilot_lognormal, 1e6) - 1e-8


class TestBoundary:
    def test_zero_variance_boundary_equals_arm_mean_difference(self):
        # a draw with no line heterogeneity that lands on the boundary:
        # beta is then the raw arm-mean difference of log y, exactly
        params = AnovaParams(beta0=2.0, beta=0.5, tau2=0.0, sigma2=0.4)
        ds = gen_anova(4, 3, params, replicate_stream(1, 4, 3, 0))
        fit = fit_lmm(ds)
        assert fit.tau2_hat == 0.0
        assert fit.beta_hat == pytest.approx(arm_means_log(ds), abs=1e-12)

    def test_balanced_beta_equals_arm_difference_any_theta(self):
        # balance makes the treatment contrast orthogonal to line effects
        params = AnovaParams(beta0=1.0, beta=0.8, tau2=0.4, sigma2=0.3)
        ds = gen_anova(5, 3, params, replicate_stream(9, 5, 3, 0))
        fit = fit_lmm(ds)
        assert fit.beta_hat == pytest.approx(arm_means_log(ds), abs=1e-10)


class TestInvariances:
    def test_scale_equivariance(self):
        params = AnovaParams(beta0=0.1, beta=0.7, tau2=0.05, sigma2=0.4)
        ds = gen_anova(4, 3, params, replicate_stream(5, 4, 3, 1))
        c = 9.21
        scaled = SimulatedDataset(line_index=ds.line_index, tx=ds.tx, y=ds.y * c,
                                  status=ds.status)
        f1, f2 = fit_lmm(ds), fit_lmm(scaled)
        assert f2.beta0_hat - f1.beta0_hat == pytest.approx(math.log(c), abs=1e-10)
        assert f2.beta_hat == pytest.approx(f1.beta_hat, abs=1e-10)
        assert f2.tau2_hat == pytest.approx(f1.tau2_hat, abs=1e-10)
        assert f2.sigma2_hat == pytest.approx(f1.sigma2_hat, abs=1e-10)
        assert f2.se_beta == pytest.approx(f1.se_beta, abs=1e-10)
        assert f2.p_value == pytest.approx(f1.p_value, abs=1e-10)

    def test_arm_label_antisymmetry(self):
        params = AnovaParams(beta0=0.1, beta=0.7, tau2=0.05, sigma2=0.4)
        ds = gen_anova(4, 3, params, replicate_stream(5, 4, 3, 1))
        swapped = SimulatedDataset(line_index=ds.line_index, tx=1 - ds.tx, y=ds.y,
                                   status=ds.status)
        f1, f2 = fit_lmm(ds), fit_lmm(swapped)
        assert f2.beta_hat == pytest.approx(-f1.beta_hat, abs=1e-10)
        assert abs(f2.beta_hat / f2.se_beta) == pytest.approx(
            abs(f1.beta_hat / f1.se_beta), abs=1e-10
        )
        assert f2.p_value == pytest.approx(f1.p_value, abs=1e-10)


class TestWaldTest:
    def test_overwhelming_effect_rejects(self):
        fit = fit_lmm_like(beta=0.7299, se=0.01, df=14)
        assert wald_test_lmm(fit, 0.05)

    def test_null_point_never_rejects(self):
        fit = fit_lmm_like(beta=0.0, se=0.3, df=14)
        assert fit.p_value == pytest.approx(1.0)
        assert not wald_test_lmm(fit, 0.05)

    def test_non_converged_fit_refused(self):
        fit = fit_lmm_like(beta=1.0, se=0.1, df=14, converged=False)
        with pytest.raises(ValueError, match="non-converged"):
            wald_test_lmm(fit, 0.05)


def fit_lmm_like(beta, se, df, converged=True):
    from scipy.stats import t as t_dist

    from xenopower.lmm import LmmFit

    p = 2.0 * float(t_dist.sf(abs(beta / se), df))
    return LmmFit(
        beta0_hat=0.0, beta_hat=beta, se_beta=se, tau2_hat=0.0, sigma2_hat=1.0,
        df=df, p_value=p, converged=converged, log_restricted_likelihood=0.0,
    )


class TestPreconditions:
    def test_single_line_is_hard_error(self):
        rows = tuple(
            PilotRecord("a", y, tx) for y, tx in [(1.0, 0), (2.0, 1), (1.5, 0), (2.5, 1)]
        )
        ds = PilotDataset.__new__(PilotDataset)
        object.__setattr__(ds, "rows", rows)
        with pytest.raises(ValueError, match="2 distinct lines"):
            fit_lmm(ds)

    def test_nonpositive_outcome_is_hard_error(self):
        ds = SimulatedDataset(
            line_index=np.array([1, 1, 2, 2]),
            tx=np.array([0, 1, 0, 1]),
            y=np.array([1.0, -1.0, 2.0, 3.0]),
            status=np.ones(4, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="positive"):
            fit_lmm(ds)
