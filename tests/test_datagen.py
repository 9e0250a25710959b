from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.stats import kstest

from xenopower.datagen import gen_anova, gen_frailty, replicate_stream
from xenopower.types import AnovaParams, FrailtyParams


def anova_params(**over):
    base = dict(beta0=5.0, beta=0.0, tau2=0.2, sigma2=0.5)
    base.update(over)
    return AnovaParams(**base)


def frailty_params(**over):
    base = dict(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=True, ct=8.0)
    base.update(over)
    return FrailtyParams(**base)


class TestReproducibility:
    def test_anova_bit_identical(self):
        p = anova_params(beta=0.4)
        a = gen_anova(4, 3, p, replicate_stream(99, 4, 3, 7))
        b = gen_anova(4, 3, p, replicate_stream(99, 4, 3, 7))
        assert a.y.tobytes() == b.y.tobytes()
        assert np.array_equal(a.line_index, b.line_index)
        assert np.array_equal(a.tx, b.tx)

    def test_frailty_bit_identical(self):
        p = frailty_params()
        a = gen_frailty(4, 3, p, replicate_stream(99, 4, 3, 7))
        b = gen_frailty(4, 3, p, replicate_stream(99, 4, 3, 7))
        assert a.y.tobytes() == b.y.tobytes()
        assert np.array_equal(a.status, b.status)

    def test_replicates_differ(self):
        p = anova_params()
        a = gen_anova(4, 3, p, replicate_stream(99, 4, 3, 0))
        b = gen_anova(4, 3, p, replicate_stream(99, 4, 3, 1))
        assert not np.array_equal(a.y, b.y)


class TestDesignShape:
    @pytest.mark.parametrize("n,m", [(3, 2), (2, 1), (7, 5)])
    def test_arm_balance_per_line(self, n, m):
        ds = gen_anova(n, m, anova_params(), replicate_stream(1, n, m, 0))
        assert ds.y.size == 2 * n * m
        for line in range(1, n + 1):
            sel = ds.line_index == line
            assert int((ds.tx[sel] == 0).sum()) == m
            assert int((ds.tx[sel] == 1).sum()) == m

    def test_design_arrays_are_shared_read_only(self):
        # every dataset of a cell shares one copy, so none may write to it
        a = gen_anova(3, 2, anova_params(), replicate_stream(5, 3, 2, 0))
        b = gen_frailty(3, 2, frailty_params(), replicate_stream(5, 3, 2, 1))
        assert a.line_index is b.line_index and a.tx is b.tx
        with pytest.raises(ValueError, match="read-only"):
            a.tx[0] = 1

    @pytest.mark.parametrize("n, m", [(0, 2), (3, 0)])
    def test_empty_design_rejected(self, n, m):
        with pytest.raises(ValueError, match="n and m must be positive"):
            gen_anova(n, m, anova_params(), replicate_stream(5, 3, 2, 0))
        with pytest.raises(ValueError, match="n and m must be positive"):
            gen_frailty(n, m, frailty_params(), replicate_stream(5, 3, 2, 0))

    def test_small_cell_counts_and_positivity(self):
        ds = gen_anova(3, 2, anova_params(), replicate_stream(5, 3, 2, 0))
        assert ds.y.size == 12
        assert np.all(ds.y > 0)
        assert np.all(ds.status == 1)


class TestAnovaDistribution:
    def test_degenerate_variances_collapse_to_intercept(self):
        p = anova_params(beta=0.0, tau2=0.0, sigma2=1e-12)
        ds = gen_anova(5, 4, p, replicate_stream(2, 5, 4, 0))
        assert np.allclose(ds.y, np.exp(5.0), rtol=1e-4)

    def test_control_arm_median_matches_exp_beta0(self):
        # median of a log-normal is exp(beta0); 100k animals pin it within 2%
        p = anova_params(beta0=np.log(2.4), beta=-1.1, tau2=0.1111, sigma2=1.0)
        ds = gen_anova(500, 100, p, replicate_stream(3, 500, 100, 0))
        ctl_median = float(np.median(ds.y[ds.tx == 0]))
        assert ctl_median == pytest.approx(2.4, rel=0.02)

    def test_log_outcomes_normal_by_ks(self):
        # with beta=0 and tau2=0 the log sample is iid N(beta0, sigma2);
        # the KS statistic should clear the 1% critical value in >= 95%
        # of repeated draws (19/20 allowed here)
        p = anova_params(beta=0.0, tau2=0.0, sigma2=0.5)
        passes = 0
        for r in range(20):
            ds = gen_anova(100, 50, p, replicate_stream(17, 100, 50, r))
            stat = kstest(np.log(ds.y), "norm", args=(5.0, np.sqrt(0.5))).statistic
            crit_1pct = 1.628 / np.sqrt(ds.y.size)
            passes += stat < crit_1pct
        assert passes >= 19


class TestFrailtyDistribution:
    def test_censoring_fraction_matches_quadrature(self):
        # oracle: P(censored) = E[exp(-lam*ct*e^A)], A ~ N(0, tau2), by
        # 64-point Gauss-Hermite
        x, w = hermgauss(64)
        expected = float(np.sum(w * np.exp(-0.3 * 8.0 * np.exp(np.sqrt(2 * 0.2) * x))) / np.sqrt(np.pi))
        ds = gen_frailty(1000, 50, frailty_params(), replicate_stream(8, 1000, 50, 0))
        assert ds.censoring_fraction == pytest.approx(expected, abs=0.01)

    def test_infinite_horizon_never_censors(self):
        p = frailty_params(ct=1e12)
        ds = gen_frailty(5, 4, p, replicate_stream(4, 5, 4, 0))
        assert np.all(ds.status == 1)
        p2 = frailty_params(censor=False, ct=None)
        ds2 = gen_frailty(5, 4, p2, replicate_stream(4, 5, 4, 0))
        assert np.all(ds2.status == 1)

    def test_censored_records_sit_exactly_at_ct(self):
        ds = gen_frailty(6, 5, frailty_params(), replicate_stream(21, 6, 5, 0))
        censored = ds.y[ds.status == 0]
        assert censored.size > 0
        assert np.all(censored == 8.0)

    def test_mean_censoring_rate_reference_cell(self):
        # (3,2) design at the median-elicited settings: long-run average
        # censoring close to 17.7%
        p = FrailtyParams(lam=0.2888113, nu=1.0, beta=np.log(2.4 / 7.2), tau2=0.1,
                          censor=True, ct=12.0)
        fracs = [
            gen_frailty(3, 2, p, replicate_stream(10, 3, 2, r)).censoring_fraction
            for r in range(4000)
        ]
        assert float(np.mean(fracs)) == pytest.approx(17.7 / 100.0, abs=1.5 / 100.0)

    def test_exponential_means_when_no_frailty(self):
        # tau2=0, nu=1: event times are exponential with rate lam*e^(tx*beta)
        p = frailty_params(beta=-0.7, tau2=0.0, censor=False, ct=None)
        ds = gen_frailty(500, 100, p, replicate_stream(6, 500, 100, 0))
        ctl = ds.y[ds.tx == 0]
        trt = ds.y[ds.tx == 1]
        assert float(ctl.mean()) == pytest.approx(1.0 / 0.3, rel=0.02)
        assert float(trt.mean()) == pytest.approx(1.0 / (0.3 * np.exp(-0.7)), rel=0.02)
