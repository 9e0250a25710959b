from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from scipy.special import stdtr, stdtrit

from conftest import arithmetic_fingerprint, arm_means_log
from xenopower import datagen, lmm
from xenopower._data import _carrying, as_arrays
from xenopower.datagen import SimulatedDataset, gen_anova, replicate_stream
from xenopower.datasets import pilot_censored, pilot_uncensored
from xenopower.lmm import fit_lmm, wald_test_lmm
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


def search_fit(data):
    """Oracle: fit_lmm by the bounded search, on a view of the data whose
    design record does not claim balance."""
    design, y, status = as_arrays(data)
    view = SimulatedDataset(line_index=design.codes, tx=design.tx, y=y, status=status)
    return fit_lmm(_carrying(view, dataclasses.replace(design, J=None)))


def sufficient(data):
    design, y, _status = as_arrays(data)
    return lmm._Sufficient(design, np.log(y))


def balanced_rows(st):
    """lmm._balanced_rows on the sums fit_lmm hands it, as
    (theta, sigma2, beta, var_beta, converged)."""
    design = st.design
    return lmm._balanced_rows(np.float64(st.Sy), np.float64(st.Syy), st.sy @ st.sy,
                              np.float64(st.Sxy - st.Sy / 2.0), design.codes.size, design.k,
                              design.J)


def closed_form_theta(ds):
    return balanced_rows(sufficient(ds))[0]


def restricted_loglik_at(data, theta):
    """Restricted log-likelihood of the general profile at a fixed theta."""
    return -0.5 * lmm._profile(theta, sufficient(data))[0]


def balanced_design(n, m, log_y):
    line = np.repeat(np.arange(1, n + 1), 2 * m)
    tx = np.tile(np.r_[np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)], n)
    return SimulatedDataset(line_index=line, tx=tx, y=np.exp(log_y(line, tx)),
                            status=np.ones(line.size, dtype=np.int64))


def general_profile_fit(ds, theta):
    """Oracle: the general per-line profile of _Sufficient evaluated at
    theta, as (converged, beta, se, tau2, sigma2, -2 loglik)."""
    neg2, _beta0, beta, sigma2, var_beta = lmm._profile(theta, sufficient(ds))
    converged = math.isfinite(neg2) and var_beta > 0
    return converged, beta, math.sqrt(var_beta), theta * sigma2, sigma2, neg2


class TestBalancedClosedForm:
    def test_matches_search_on_random_balanced_cells(self):
        rng = np.random.default_rng(20261018)
        boundary = 0
        for r in range(300):
            n, m = int(rng.integers(2, 11)), int(rng.integers(1, 9))
            tau2 = float(rng.choice([0.0, 0.01, 0.1, 0.5, 2.0]))
            params = AnovaParams(beta0=1.0, beta=0.5, tau2=tau2, sigma2=0.4)
            ds = gen_anova(n, m, params, replicate_stream(11, n, m, r))
            fast, slow = fit_lmm(ds), search_fit(ds)
            cell = f"(n={n}, m={m}, tau2={tau2}, r={r})"
            assert fast.converged == slow.converged, cell
            assert (fast.tau2_hat == 0) == (slow.tau2_hat == 0), cell
            assert abs(fast.p_value - slow.p_value) <= 1e-6, cell
            boundary += slow.tau2_hat == 0
            # the running-sum profile equals the per-line one at the same theta
            converged, beta, se, tau2_hat, sigma2, neg2 = general_profile_fit(
                ds, closed_form_theta(ds))
            assert fast.converged == converged, cell
            assert (fast.tau2_hat == 0) == (tau2_hat == 0), cell
            pairs = [(fast.beta_hat, beta), (fast.se_beta, se), (fast.tau2_hat, tau2_hat),
                     (fast.sigma2_hat, sigma2), (-2.0 * fast.log_restricted_likelihood, neg2)]
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-12, abs=0), cell
        assert boundary >= 30  # the tau2_hat = 0 decision is exercised

    def test_zero_within_line_ss(self):
        # y = line effect + treatment effect exactly: MSW = 0 clamps theta
        ds = balanced_design(4, 3, lambda line, tx: 0.3 * line + 0.7 * tx)
        assert closed_form_theta(ds) == 1e6
        fast, slow = fit_lmm(ds), search_fit(ds)
        assert fast.converged and slow.converged
        assert fast.beta_hat == pytest.approx(0.7, abs=1e-12)
        assert abs(fast.p_value - slow.p_value) <= 1e-6

    @pytest.mark.parametrize("value", [1.0, 3.0, 7.3])
    def test_all_outcomes_equal_is_not_converged(self, value):
        # log 1 = 0 is exact; other constants leave rounding noise in the residual
        ds = balanced_design(4, 3, lambda line, tx: np.full(line.size, math.log(value)))
        fast, slow = fit_lmm(ds), search_fit(ds)
        assert not fast.converged
        assert not slow.converged

    def test_failed_search_returns_the_non_converged_fit(self, monkeypatch, pilot_lognormal):
        # a search that runs out of evaluations carries no estimates, as a
        # non-finite profile does
        real = lmm._bounded_min

        def failing(*args):
            return (*real(*args)[:2], False)

        monkeypatch.setattr(lmm, "_bounded_min", failing)
        fit = search_fit(pilot_lognormal)
        assert not fit.converged
        estimates = (fit.beta0_hat, fit.beta_hat, fit.se_beta, fit.tau2_hat, fit.sigma2_hat,
                     fit.df, fit.p_value)
        assert all(math.isnan(v) for v in estimates)
        assert fit.log_restricted_likelihood == -math.inf

    def test_variance_ratio_above_range_is_clamped(self):
        noise = 1e-3 * np.random.default_rng(5).standard_normal(24)
        ds = balanced_design(4, 3, lambda line, tx: 50.0 * line + 0.7 * tx + noise)
        assert closed_form_theta(ds) == 1e6
        fast, slow = fit_lmm(ds), search_fit(ds)
        assert fast.converged and slow.converged
        assert fast.tau2_hat == pytest.approx(1e6 * fast.sigma2_hat, rel=1e-12)
        assert fast.tau2_hat == pytest.approx(slow.tau2_hat, rel=1e-6)
        assert abs(fast.p_value - slow.p_value) <= 1e-6

    def test_boundary_draw_is_identical_to_search(self):
        # both paths evaluate the fit at exactly theta = 0, the closed form in
        # its ANOVA sums and the search in the per-line profile
        params = AnovaParams(beta0=2.0, beta=0.5, tau2=0.0, sigma2=0.4)
        ds = gen_anova(4, 3, params, replicate_stream(1, 4, 3, 0))
        assert closed_form_theta(ds) == 0.0
        fast, slow = fit_lmm(ds), search_fit(ds)
        assert fast.converged
        assert (fast.converged, fast.df, fast.tau2_hat == 0) == (slow.converged, slow.df,
                                                                 slow.tau2_hat == 0)
        for name in ("beta0_hat", "beta_hat", "se_beta", "sigma2_hat", "p_value",
                     "log_restricted_likelihood"):
            assert getattr(fast, name) == pytest.approx(getattr(slow, name), rel=1e-12, abs=0)

    def test_large_variance_ratio_keeps_its_digits(self):
        # at theta ~ 5.5e4 the weight 1/(1 + theta*J) is ~1e-5; formed as
        # 1 - cJ, c = theta/(1 + theta*J), it costs sigma2 a relative 1.3e-10
        # on this draw. The parameters are the pilot's REML estimates, pinned
        # so that the draw does not move with their last digit.
        params = AnovaParams(beta0=0.0653407599544963, beta=0.7299459629833942,
                             tau2=0.03319570410322243, sigma2=0.38597141190287104)
        ds = gen_anova(2, 1, params, replicate_stream(20261018, 2, 1, 139))
        st = sufficient(ds)
        theta, sigma2, _beta, _var_beta, _converged = balanced_rows(st)
        assert 5e4 < theta < 6e4
        assert fit_lmm(ds).sigma2_hat == sigma2
        # the balanced fit in exact arithmetic on the same float sums
        N, J = ds.y.size, 2
        Sy, Syy, Sxy, Q = map(Fraction, (st.Sy, st.Syy, st.Sxy, float(st.sy @ st.sy)))
        D = Sxy - Sy / 2
        W = Syy - Q / J - D * D / Fraction(N, 4)
        B = Q / J - Sy * Sy / N
        exact = (W + B / (1 + Fraction(float(theta)) * J)) / (N - 2)
        assert abs(Fraction(float(sigma2)) - exact) / exact <= Fraction(6e-11)


class TestFrozenFits:
    # sha256 of every LmmFit repr below, as fit_lmm gives them with the
    # balanced rule in its ANOVA form and p_value from the standard-library
    # t tail, and of the numpy arithmetic those fits were frozen on
    FITS = "4afab43d4ee38b2aa5df5586404f6ab18d02d409114c0137cf842150bd7be927"
    ARITHMETIC = "cd4aec4da2c6ae8cce311d8b8bb1d6c4fdcc83a65330720975bae4b77f194ff4"

    def test_fits_match_the_frozen_digest(self):
        # the pilot's REML estimates, pinned
        params = AnovaParams(beta0=0.0653407599544963, beta=0.7299459629833942,
                             tau2=0.03319570410322243, sigma2=0.38597141190287104)
        datasets = [gen_anova(n, m, params, replicate_stream(20261017, n, m, r))
                    for n in range(2, 11) for m in range(1, 9) for r in range(60)]
        datasets += [pilot_uncensored(), pilot_censored()]
        digest = hashlib.sha256()
        for ds in datasets:
            digest.update(repr(fit_lmm(ds)).encode())
        arrays = (as_arrays(ds) for ds in datasets)
        if arithmetic_fingerprint((d.tx, y) for d, y, _ in arrays) != self.ARITHMETIC:
            pytest.skip("numpy's exp, log or BLAS dot rounds differently on this platform")
        assert digest.hexdigest() == self.FITS


def loop_tests(datasets, alpha):
    """Oracle for lmm._balanced_tests: (rejected, converged, p_value) of
    fit_lmm and wald_test_lmm one dataset at a time, where a ValueError
    from as_arrays counts as not converged."""
    rejected, converged, p = [], [], []
    for ds in datasets:
        try:
            fit = fit_lmm(ds)
        except ValueError:
            fit = lmm._NOT_CONVERGED
        converged.append(fit.converged)
        rejected.append(fit.converged and wald_test_lmm(fit, alpha))
        p.append(fit.p_value)
    return np.array(rejected), np.array(converged), np.array(p)


def stacked_tests(n, m, rows, alpha):
    """lmm._balanced_tests on rows of outcomes of cell (n, m), with no
    numpy warning let through, as (rejected, converged, p_value), and the
    datasets those rows make. The stack forms no p-value, so p_value is
    the two-sided tail of each row's t, nan where the row does not converge."""
    line, tx, status, design = datagen._design_arrays(n, m)
    y = np.array(rows, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rejected, converged, t = lmm._balanced_tests(y, None, design, alpha)
    p = np.array([lmm._t_tail(y.shape[1] - design.k - 1, float(row_t)) for row_t in t])
    return ((rejected, converged, p),
            [SimulatedDataset(line_index=line, tx=tx, y=row, status=status) for row in y])


class TestStackedTests:
    # pilot-like, a true null on the boundary, and tau2/sigma2 = 5e4, where
    # the per-line profile loses about 1e-10 of sigma2 to cancellation
    PARAMS = (AnovaParams(beta0=0.0653, beta=0.7299, tau2=0.0332, sigma2=0.386),
              AnovaParams(beta0=1.0, beta=0.0, tau2=0.0, sigma2=0.4),
              AnovaParams(beta0=-2.0, beta=0.3, tau2=2.0, sigma2=0.05),
              AnovaParams(beta0=0.5, beta=0.02, tau2=0.5, sigma2=1e-5))

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_decisions_equal_fit_lmm_on_generated_cells(self, alpha):
        worst, boundary = 0.0, 0
        for i, params in enumerate(self.PARAMS):
            for n, m in [(2, 1), (3, 2), (6, 5), (10, 8), (2, 4)]:
                datasets = [gen_anova(n, m, params, replicate_stream(40 + i, n, m, r))
                            for r in range(60)]
                (rejected, converged, p), _ = stacked_tests(n, m, [d.y for d in datasets],
                                                            alpha)
                want_rejected, want_converged, want_p = loop_tests(datasets, alpha)
                cell = f"(n={n}, m={m}, {params})"
                assert np.array_equal(converged, want_converged), cell
                assert np.array_equal(rejected, want_rejected), cell
                assert np.array_equal(np.isnan(p), ~converged), cell
                worst = max(worst, float(np.max(np.abs(p - want_p), initial=0.0,
                                                where=converged)))
                boundary += sum(fit_lmm(d).tau2_hat == 0 for d in datasets)
                # fit_lmm shares the stack's kernel; the search path does not
                searched = [search_fit(d) for d in datasets]
                assert converged.tolist() == [f.converged for f in searched], cell
                assert rejected.tolist() == [f.converged and wald_test_lmm(f, alpha)
                                             for f in searched], cell
                assert np.allclose(p, [f.p_value for f in searched], rtol=0, atol=1e-6,
                                   equal_nan=True), cell
        assert worst <= 1e-9  # 2.3e-11 on these draws
        assert boundary >= 200  # the theta = 0 rule is exercised

    def test_edge_rows_decide_as_the_loop(self):
        n, m = 4, 3
        line, tx, _status, _design = datagen._design_arrays(n, m)
        noise = np.random.default_rng(5).standard_normal(line.size)
        log_rows = [
            # no within-line spread: msw is 0 or rounding noise on either side of it
            0.3 * line + 0.7 * tx,
            0.3 * line,
            0.25 * line + 0.5 * tx,
            0.3 * line + 0.7 * tx + 0.2 * noise,
            50.0 * line + 0.7 * tx + 1e-3 * noise,  # theta clamped at its upper end
            np.zeros(line.size),  # all outcomes 1, log y exactly 0
            np.full(line.size, math.log(3.0)),  # all equal, with rounding noise
            np.full(line.size, math.log(7.3)),
            np.where(np.arange(line.size) == 4, 800.0, 0.2 * noise),  # one overflows to inf
            np.where(np.arange(line.size) == 4, -800.0, 0.2 * noise),  # one underflows to 0
            np.where(np.arange(line.size) == 4, -720.0, 0.2 * noise),  # one subnormal
        ]
        with np.errstate(over="ignore", under="ignore"):
            rows = np.exp(log_rows)
        assert rows[8, 4] == np.inf and rows[9, 4] == 0.0 and 0.0 < rows[10, 4] < 1e-300
        for alpha in (0.01, 0.05):
            (rejected, converged, p), datasets = stacked_tests(n, m, rows, alpha)
            want_rejected, want_converged, want_p = loop_tests(datasets, alpha)
            assert converged.tolist() == want_converged.tolist()
            assert rejected.tolist() == want_rejected.tolist()
            assert np.allclose(p, want_p, rtol=1e-9, atol=1e-12, equal_nan=True)
        # every rule is taken: an exact fit and a refused outcome fail, the rest converge
        assert converged.tolist() == [True] * 5 + [False] * 5 + [True]


class TestStudentT:
    """lmm's standard-library t tail and critical value against scipy.special,
    which the package no longer imports for them. The pinned tolerances
    are about 1.5 times the largest deviations measured on these grids."""

    ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.2)

    def test_critical_value_matches_stdtrit(self):
        worst = 0.0
        for df in range(1, 501):
            for alpha in self.ALPHAS:
                c = lmm._t_crit(df, alpha)
                want = float(stdtrit(df, 1.0 - alpha / 2.0))
                worst = max(worst, abs(c - want) / want)
                # the tail crosses alpha at c, so |t| > c decides as p < alpha
                assert lmm._t_tail(df, c * (1 + 1e-11)) < alpha < lmm._t_tail(df, c * (1 - 1e-11))
        assert worst <= 2e-12  # 1.37e-12, at df 481

    def test_tail_matches_stdtr(self):
        ts = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 81)])
        worst_rel = worst_abs = 0.0
        underflows = 0
        for df in range(1, 501):
            for t in ts:
                p, want = lmm._t_tail(df, float(t)), 2.0 * float(stdtr(df, -t))
                if want < 1e-300:  # far tails: both have underflowed
                    underflows += 1
                    assert p < 1e-290, (df, t)
                elif want <= 0.5:
                    worst_rel = max(worst_rel, abs(p - want) / want)
                elif df > 1:  # at df 1, stdtr itself loses 3e-9 near t = 0
                    worst_abs = max(worst_abs, abs(p - want))
        assert underflows > 1000
        assert worst_rel <= 3e-12  # 1.93e-12, at df 481
        assert worst_abs <= 2e-13  # 1.44e-13

    def test_tail_matches_closed_forms_at_df_1_and_2(self):
        worst = 0.0
        for t in np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 81)]).tolist():
            s = math.sqrt(2.0 + t * t)
            for df, want in ((1, 2.0 / math.pi * math.atan2(1.0, t)), (2, 2.0 / (s * (s + t)))):
                got = lmm._t_tail(df, t)
                assert lmm._t_tail(df, -t) == got
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-14  # 1.8e-15
        assert math.isnan(lmm._t_tail(5, math.nan))
        assert lmm._t_tail(5, math.inf) == 0.0

    def test_stacked_decisions_equal_the_p_value_rule(self):
        # 5 cells x 5 seeds x 8192 rows = 204,800 replicates at the pilot's
        # parameters, each decided at two levels
        params = AnovaParams(beta0=0.0653, beta=0.7299, tau2=0.0332, sigma2=0.386)
        replicates = 0
        for n, m in [(2, 1), (3, 2), (4, 3), (6, 5), (10, 8)]:
            design = datagen._design_arrays(n, m)[3]
            df = 2 * n * m - n - 1
            for seed in range(5):
                z = np.random.default_rng([seed, n, m]).standard_normal((8192, n + 2 * n * m))
                y = datagen._anova_y(z, design, params)
                for alpha in (0.01, 0.05):
                    rejected, converged, t = lmm._balanced_tests(y, None, design, alpha)
                    want = converged & (2.0 * stdtr(df, -t) < alpha)
                    assert np.array_equal(rejected, want), (n, m, seed, alpha)
                replicates += z.shape[0]
        assert replicates >= 200_000


def scipy_search(f, a, b, xatol, max_evals=500):
    """Oracle for lmm._bounded_min: scipy's bounded minimize_scalar, as
    (x, f(x), success)."""
    res = scipy.optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                         options={"xatol": xatol, "maxiter": max_evals})
    return res.x, res.fun, res.success


class TestBoundedSearch:
    @staticmethod
    def unbalanced_profiles(seed, count):
        """The profiles fit_lmm searches, of random unbalanced datasets with
        line spreads from none to dominant and residual spreads from 1e-3."""
        rng = np.random.default_rng(seed)
        while count:
            k = int(rng.integers(2, 9))
            line = np.repeat(np.arange(1, k + 1), rng.integers(1, 7, k))
            tx = rng.integers(0, 2, line.size)
            tx[:2] = (0, 1)
            if line.size - k - 1 < 1:
                continue
            log_y = (rng.choice([0.0, 0.01, 0.3, 3.0, 100.0]) * rng.standard_normal(k)[line - 1]
                     + 0.7 * tx + rng.choice([1e-3, 0.5, 2.0]) * rng.standard_normal(line.size))
            st = sufficient(SimulatedDataset(line_index=line, tx=tx, y=np.exp(log_y),
                                             status=np.ones(line.size, dtype=np.int64)))
            count -= 1
            yield lambda lt, st=st: lmm._profile(math.exp(lt), st)[0]

    def test_equals_scipys_bounded_search(self):
        bracket = (lmm._LOG_THETA_LO, lmm._LOG_THETA_HI, lmm._XATOL)
        for f in self.unbalanced_profiles(35, 400):
            assert lmm._bounded_min(f, *bracket) == scipy_search(f, *bracket)

    def test_exhausted_budget_fails_as_scipys_does(self):
        bracket = (lmm._LOG_THETA_LO, lmm._LOG_THETA_HI, lmm._XATOL)
        failed = 0
        for budget, f in zip(itertools.cycle(range(2, 30)), self.unbalanced_profiles(36, 200)):
            got = lmm._bounded_min(f, *bracket, budget)
            assert got == scipy_search(f, *bracket, budget)
            failed += not got[2]
        assert failed > 100


class TestRouting:
    @pytest.fixture
    def search_calls(self, monkeypatch):
        # every search fit_lmm runs, each checked against scipy's bounded
        # minimize_scalar on the same profile, bracket and xatol
        calls = []
        real = lmm._bounded_min

        def spy(*args):
            calls.append(args)
            got = real(*args)
            assert got == scipy_search(*args)
            return got

        monkeypatch.setattr(lmm, "_bounded_min", spy)
        return calls

    @staticmethod
    def assert_matches_grid_search(fit, line_index, tx, y):
        # unbalanced, beta depends on theta, so agreement is limited by the
        # grid's log-theta step of 0.0032; the likelihood never falls below
        # the grid's best
        theta, beta, _, ll = brute_force_reml(line_index, tx, y)
        assert fit.tau2_hat / fit.sigma2_hat == pytest.approx(theta, rel=2e-3)
        assert fit.beta_hat == pytest.approx(beta[1], abs=1e-4)
        assert ll - 1e-8 <= fit.log_restricted_likelihood <= ll + 1e-5

    @staticmethod
    def generated_cell():
        params = AnovaParams(beta0=0.5, beta=0.7, tau2=0.15, sigma2=0.4)
        return gen_anova(4, 3, params, replicate_stream(3, 4, 3, 0))

    def test_balanced_data_skip_the_search(self, search_calls, pilot_lognormal):
        assert fit_lmm(self.generated_cell()).converged
        assert fit_lmm(pilot_lognormal).converged
        assert search_calls == []

    def test_unbalanced_generated_cell_uses_the_search(self, search_calls):
        ds = self.generated_cell()
        keep = np.arange(ds.y.size) != 5  # one treated animal of line 1 lost
        short = SimulatedDataset(line_index=ds.line_index[keep], tx=ds.tx[keep],
                                 y=ds.y[keep], status=ds.status[keep])
        fit = fit_lmm(short)
        assert len(search_calls) == 1
        self.assert_matches_grid_search(fit, short.line_index, short.tx, short.y)

    def test_unequal_arms_within_equal_lines_use_the_search(self, search_calls):
        ds = self.generated_cell()
        tx = ds.tx.copy()
        tx[0] = 1  # line 1 keeps 6 animals but has 2 controls and 4 treated
        moved = SimulatedDataset(line_index=ds.line_index, tx=tx, y=ds.y, status=ds.status)
        fit = fit_lmm(moved)
        assert len(search_calls) == 1
        self.assert_matches_grid_search(fit, moved.line_index, moved.tx, moved.y)

    def test_pilot_with_a_dropped_row_uses_the_search(self, search_calls, pilot_lognormal):
        short = PilotDataset(rows=pilot_lognormal.rows[1:])
        fit = fit_lmm(short)
        assert len(search_calls) == 1
        self.assert_matches_grid_search(fit, [r.id for r in short.rows],
                                        [r.tx for r in short.rows], [r.y for r in short.rows])


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

    @pytest.mark.parametrize("y", [math.inf, math.nan])
    def test_non_finite_outcome_is_hard_error_without_a_warning(self, y):
        # tx * log y would form 0 * inf at a control animal's inf
        ds = SimulatedDataset(
            line_index=np.array([1, 1, 1, 2, 2, 2]),
            tx=np.array([0, 1, 1, 0, 0, 1]),
            y=np.array([y, 2.0, 3.0, 1.5, 2.5, 4.0]),
            status=np.ones(6, dtype=np.int64),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="positive and finite"):
                fit_lmm(ds)

    def test_no_residual_degree_of_freedom_is_hard_error(self):
        # N - lines - 1 = 3 - 2 - 1 = 0 leaves no t reference for the test
        ds = PilotDataset(rows=(PilotRecord("A", 1.0, 0), PilotRecord("A", 2.0, 1),
                                PilotRecord("B", 3.0, 0)))
        with pytest.raises(ValueError, match="more observations than lines \\+ 1"):
            fit_lmm(ds)
