from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import dataset_to_pilot
from xenopower.datagen import gen_anova, gen_frailty, replicate_stream
from xenopower.elicit import (
    elicit_anova_from_medians,
    elicit_anova_from_pilot,
    elicit_frailty_from_medians,
    elicit_frailty_from_pilot,
)
from xenopower.types import AnovaParams, FrailtyParams, PilotDataset, PilotRecord, ValidationError


class TestAnovaFromMedians:
    def test_reference_values_exact(self):
        p = elicit_anova_from_medians(2.4, 7.2, icc=0.1, sigma2=1.0)
        assert p.beta == pytest.approx(-1.098612, abs=1e-6)
        assert p.tau2 == pytest.approx(0.1111111, abs=1e-6)
        assert p.beta0 == pytest.approx(math.log(2.4), abs=1e-12)
        assert p.sigma2 == 1.0

    def test_equal_medians_give_zero_effect(self):
        assert elicit_anova_from_medians(3.0, 3.0).beta == 0.0

    def test_zero_icc_gives_zero_tau2(self):
        assert elicit_anova_from_medians(2.4, 7.2, icc=0.0).tau2 == 0.0

    def test_icc_at_one_rejected(self):
        with pytest.raises(ValidationError, match="icc"):
            elicit_anova_from_medians(2.4, 7.2, icc=1.0)

    def test_nonpositive_median_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            elicit_anova_from_medians(0.0, 7.2)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(ctl_med=float("inf"), tx_med=7.2), "positive and finite"),
        (dict(ctl_med=2.4, tx_med=float("nan")), "positive and finite"),
        (dict(ctl_med=2.4, tx_med=7.2, sigma2=float("inf")), "sigma2"),
    ])
    def test_non_finite_inputs_rejected(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            elicit_anova_from_medians(**kwargs)

    def test_round_trip_medians(self):
        p = elicit_anova_from_medians(2.4, 7.2, icc=0.25, sigma2=0.8)
        assert math.exp(p.beta0) == pytest.approx(2.4, abs=1e-12)
        assert math.exp(p.beta0 - p.beta) == pytest.approx(7.2, abs=1e-12)

    def test_icc_mapping_inverts_derived_icc(self):
        for icc in (0.05, 0.1, 0.5, 0.9):
            p = elicit_anova_from_medians(2.4, 7.2, icc=icc, sigma2=1.3)
            assert p.icc == pytest.approx(icc, abs=1e-12)


class TestFrailtyFromMedians:
    def test_reference_values_exact(self):
        p = elicit_frailty_from_medians(2.4, 7.2, nu=1.0, tau2=0.1)
        assert p.lam == pytest.approx(0.2888113, abs=1e-6)
        assert p.beta == pytest.approx(-1.098612, abs=1e-6)
        assert p.nu == 1.0 and p.tau2 == 0.1

    def test_shape_two_scale(self):
        p = elicit_frailty_from_medians(2.4, 2.4, nu=2.0)
        assert p.lam == pytest.approx(math.log(2.0) / 2.4**2, abs=1e-9)
        assert p.beta == 0.0

    def test_round_trip_conditional_medians(self):
        # solving S(t) = 1/2 under each arm's zero-frailty hazard returns
        # the input medians
        p = elicit_frailty_from_medians(2.4, 7.2, nu=1.7, tau2=0.3)
        ctl = (math.log(2.0) / p.lam) ** (1.0 / p.nu)
        trt = (math.log(2.0) / (p.lam * math.exp(p.beta))) ** (1.0 / p.nu)
        assert ctl == pytest.approx(2.4, abs=1e-9)
        assert trt == pytest.approx(7.2, abs=1e-9)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValidationError):
            elicit_frailty_from_medians(2.4, -1.0)
        with pytest.raises(ValidationError):
            elicit_frailty_from_medians(2.4, 7.2, nu=0.0)

    @pytest.mark.parametrize("kwargs, match", [
        # lam = log(2)/2.4**1000 underflows; 1e-5**100 underflows to 0
        (dict(ctl_med=2.4, tx_med=7.2, nu=1000.0), "outside the float range"),
        (dict(ctl_med=1e-5, tx_med=7.2, nu=100.0), "outside the float range"),
        (dict(ctl_med=float("inf"), tx_med=7.2), "positive and finite"),
        (dict(ctl_med=2.4, tx_med=7.2, nu=float("inf")), "nu"),
        (dict(ctl_med=2.4, tx_med=7.2, tau2=float("inf")), "tau2 must be finite"),
        (dict(ctl_med=2.4, tx_med=7.2, tau2=float("nan")), "tau2 must be finite"),
        (dict(ctl_med=2.4, tx_med=7.2, tau2=-0.1), "tau2 must be nonnegative"),
    ])
    def test_extreme_or_non_finite_inputs_rejected(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            elicit_frailty_from_medians(**kwargs)

    def test_censoring_plan_carried(self):
        p = elicit_frailty_from_medians(2.4, 7.2, censor=True, ct=12.0)
        assert p.censor and p.ct == 12.0


class TestAnovaFromPilot:
    def test_pilot_reference_estimates(self, pilot_lognormal):
        p = elicit_anova_from_pilot(pilot_lognormal)
        assert p.beta == pytest.approx(0.7299, rel=0.01)
        assert p.tau2 == pytest.approx(0.0332, rel=0.01)
        assert p.sigma2 == pytest.approx(0.386, rel=0.01)

    def test_identical_arms_give_zero_effect(self):
        rows = []
        for line in ("a", "b", "c"):
            for y in (1.1, 2.2, 3.3):
                rows.append(PilotRecord(line, y, 0))
                rows.append(PilotRecord(line, y, 1))
        p = elicit_anova_from_pilot(PilotDataset(rows=tuple(rows)))
        assert p.beta == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_truth(self):
        truth = AnovaParams(beta0=1.3, beta=0.8, tau2=0.2, sigma2=0.5)
        ds = gen_anova(200, 20, truth, replicate_stream(0, 200, 20, 0))
        p = elicit_anova_from_pilot(dataset_to_pilot(ds))
        assert p.beta == pytest.approx(0.8, rel=0.05)
        assert p.tau2 == pytest.approx(0.2, rel=0.05)
        assert p.sigma2 == pytest.approx(0.5, rel=0.05)

    def test_censored_pilot_rejected(self, pilot_survival):
        with pytest.raises(ValidationError, match="censored"):
            elicit_anova_from_pilot(pilot_survival)


class TestFrailtyFromPilot:
    def test_pilot_reference_estimates(self, pilot_survival):
        p = elicit_frailty_from_pilot(pilot_survival, censor=True, ct=12.0)
        assert p.beta == pytest.approx(-0.8794, abs=0.15)
        assert p.nu == pytest.approx(2.1722, abs=0.35)
        assert 0.0154 / 1.6 <= p.lam <= 0.0154 * 1.6
        assert 0.0 <= p.tau2 <= 0.25
        assert p.censor and p.ct == 12.0

    def test_symmetric_pilot_gives_near_zero_effect(self):
        rows = []
        for line in ("a", "b"):
            for y in (1.5, 3.0, 4.5):
                rows.append(PilotRecord(line, y, 0, 1))
                rows.append(PilotRecord(line, y, 1, 1))
        p = elicit_frailty_from_pilot(PilotDataset(rows=tuple(rows)))
        assert p.beta == pytest.approx(0.0, abs=1e-3)

    def test_recovers_known_truth(self):
        truth = FrailtyParams(lam=0.3, nu=1.0, beta=-1.1, tau2=0.1, censor=True, ct=12.0)
        ds = gen_frailty(100, 10, truth, replicate_stream(1, 100, 10, 0))
        p = elicit_frailty_from_pilot(dataset_to_pilot(ds), censor=True, ct=12.0)
        assert p.lam == pytest.approx(0.3, rel=0.10)
        assert p.nu == pytest.approx(1.0, abs=0.10)
        assert p.beta == pytest.approx(-1.1, rel=0.10)
        assert p.tau2 == pytest.approx(0.1, rel=0.10)

    def test_pilot_without_status_rejected(self, pilot_lognormal):
        with pytest.raises(ValidationError, match="status"):
            elicit_frailty_from_pilot(pilot_lognormal)


@pytest.mark.parametrize("elicit", [elicit_anova_from_medians, elicit_frailty_from_medians])
@pytest.mark.parametrize("ctl_med, tx_med, match", [
    (True, 2.0, "ctl_med must be a number, got True"),
    (2.4, np.True_, "tx_med must be a number"),
    ("2.4", 7.2, "ctl_med must be a number, got '2.4'"),
    (2.4, None, "tx_med must be a number, got None"),
])
def test_median_that_is_not_a_number_rejected(elicit, ctl_med, tx_med, match):
    # True read as 1.0 gave beta0 = log 1 = 0
    with pytest.raises(ValidationError, match=match):
        elicit(ctl_med, tx_med)
