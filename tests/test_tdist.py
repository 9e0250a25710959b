"""The one Wald rule both models decide by: _tdist's critical value and
tail at df = inf (the normal) and at extreme levels, with scipy.special as
the oracle, and the level check every test passes through."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri, stdtrit

from xenopower import _tdist
from xenopower.frailty import FrailtyFit, wald_test_frailty
from xenopower.lmm import LmmFit, wald_test_lmm
from xenopower.types import DesignGrid, ValidationError

LMM_FIT = LmmFit(beta0_hat=0.07, beta_hat=0.73, se_beta=0.29, tau2_hat=0.03, sigma2_hat=0.39,
                 df=14.0, p_value=0.024, converged=True, log_restricted_likelihood=-15.0)
FRAILTY_FIT = FrailtyFit(lambda_hat=0.3, nu_hat=1.0, beta_hat=-0.88, se_beta=0.2, tau2_hat=0.1,
                         p_value=1.1e-5, converged=True, log_likelihood=-40.0)


class TestNormalLimit:
    @pytest.mark.parametrize("alpha", [1e-300, 1e-20, 1e-8, 0.001, 0.05, 0.2, 0.5, 0.99])
    def test_critical_value_matches_ndtri(self, alpha):
        # formed in the lower tail: 1 - alpha/2 rounds to 1 below alpha = 1e-16
        want = -float(ndtri(alpha / 2.0))
        assert abs(_tdist._t_crit(math.inf, alpha) - want) <= 1e-15 * want  # 3.5e-16

    def test_tail_matches_ndtr(self):
        worst, underflows = 0.0, 0
        for z in np.concatenate([[0.0], np.geomspace(1e-8, 40.0, 401)]).tolist():
            p, want = _tdist._t_tail(math.inf, z), 2.0 * float(ndtr(-z))
            assert _tdist._t_tail(math.inf, -z) == p
            if want < 1e-300:  # both have underflowed
                underflows += 1
                assert p < 1e-290, z
            elif z <= 10.0:  # every |z| a fit reaches here
                worst = max(worst, abs(p - want) / want)
            else:
                assert abs(p - want) <= 3e-13 * want, z  # 2.1e-13 at z = 35.8
        assert underflows >= 1
        assert worst <= 2e-14  # 1.6e-14
        assert math.isnan(_tdist._t_tail(math.inf, math.nan))
        assert _tdist._t_tail(math.inf, math.inf) == 0.0

    def test_critical_value_and_tail_agree(self):
        for alpha in (1e-20, 0.001, 0.05, 0.2):
            c = _tdist._t_crit(math.inf, alpha)
            assert _tdist._t_tail(math.inf, c * (1 + 1e-12)) < alpha
            assert _tdist._t_tail(math.inf, c * (1 - 1e-12)) > alpha


class TestNewtonFromTheNormalQuantile:
    def test_far_tail_levels_match_stdtrit_within_five_steps(self, monkeypatch):
        # the normal quantile is far below the t quantile here (9.3 against
        # 6.0e6 at df 3 and alpha 1e-20); on the log-log scale Newton still
        # needs at most five steps, one tail evaluation each
        calls = []
        tail = _tdist._t_tail

        def counted(df, t):
            calls.append(t)
            return tail(df, t)

        monkeypatch.setattr(_tdist, "_t_tail", counted)
        worst, most = 0.0, 0
        for df in range(1, 501):
            for alpha in (1e-100, 1e-20, 1e-8, 0.5, 0.9, 0.99):
                calls.clear()
                c = _tdist._t_crit.__wrapped__(df, alpha)
                want = -float(stdtrit(df, alpha / 2.0))
                worst = max(worst, abs(c - want) / want)
                most = max(most, len(calls))
        assert worst <= 2e-12  # 7.5e-13, at df 4 and alpha 0.99
        assert most <= 5

    def test_tiny_levels_match_the_closed_forms_and_the_far_tail(self, monkeypatch):
        # from the normal quantile (37.1 at alpha 1e-300) the first step once
        # overflowed; no step now passes the far tail's power law, which
        # bounds the root. stdtrit is no oracle this far out: it gives -inf at
        # df 3 to 12 and alpha 1e-300, and half the quantile at df 3 and
        # alpha 1e-200. So df 1 and 2 use their closed forms, and df >= 3 the
        # power law 2 K c^-df / df = alpha itself, whose next term,
        # df^2 (df + 1) / (2 (df + 2)) c^-2 relative, is below 2e-14 once
        # c > 1e8, and moves c by a df-th of that (the power law agrees with
        # the quantile from scipy's betaincinv within 1.5e-14)
        calls = []
        tail = _tdist._t_tail

        def counted(df, t):
            calls.append(t)
            return tail(df, t)

        monkeypatch.setattr(_tdist, "_t_tail", counted)
        worst, most = 0.0, 0
        for df in range(1, 21):
            for alpha in (1e-150, 1e-200, 1e-300):
                calls.clear()
                c = _tdist._t_crit.__wrapped__(df, alpha)
                if df == 1:
                    want = 1.0 / math.tan(0.5 * math.pi * alpha)
                elif df == 2:
                    want = (1.0 - alpha) * math.sqrt(2.0 / (alpha * (2.0 - alpha)))
                else:
                    log_k = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                             - 0.5 * math.log(df * math.pi) + 0.5 * (df + 1) * math.log(df))
                    want = math.exp((math.log(2.0 / df) + log_k - math.log(alpha)) / df)
                    assert want > 1e8
                assert math.isfinite(c), (df, alpha)
                worst = max(worst, abs(c - want) / want)
                most = max(most, len(calls))
        assert worst <= 1e-12  # 2.5e-14, at df 1 and alpha 1e-150
        assert most <= 2

    def test_a_search_that_does_not_settle_raises(self, monkeypatch):
        monkeypatch.setattr(_tdist, "_t_tail", lambda df, t: math.nan)
        with pytest.raises(ArithmeticError, match="no critical value"):
            _tdist._t_crit.__wrapped__(7, 0.05)


class TestLevelRule:
    @pytest.mark.parametrize("alpha", [0, 1, 1.5, -0.1, math.nan, True, "0.05"])
    @pytest.mark.parametrize("test, fit", [(wald_test_lmm, LMM_FIT),
                                           (wald_test_frailty, FRAILTY_FIT)])
    def test_both_tests_refuse_a_bad_level_as_a_grid_does(self, test, fit, alpha):
        with pytest.raises(ValidationError) as grid_error:
            DesignGrid(n_values=(3,), m_values=(2,), sim=10, alpha=alpha)
        with pytest.raises(ValidationError, match="alpha must lie strictly between 0 and 1") as error:
            test(fit, alpha)
        assert str(error.value) == str(grid_error.value)

    def test_a_good_level_still_decides(self):
        assert wald_test_lmm(LMM_FIT, 0.05)
        with pytest.raises(ValidationError):
            wald_test_lmm(LMM_FIT, 1.0)
        assert wald_test_frailty(FRAILTY_FIT, 0.05) and not wald_test_frailty(FRAILTY_FIT, 1e-8)
