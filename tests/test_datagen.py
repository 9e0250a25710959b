from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.stats import kstest

from xenopower import _data, datagen
from xenopower.datagen import SimulatedDataset, gen_anova, gen_frailty, replicate_stream
from xenopower.datasets import pilot_uncensored
from xenopower.frailty import fit_frailty, frailty_loglik
from xenopower.lmm import fit_lmm
from xenopower.types import AnovaParams, FrailtyParams, PilotDataset, PilotRecord


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

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1])
    def test_stream_matches_the_list_seed_sequence(self, seed):
        # the words replicate_stream builds are the ones SeedSequence makes
        # of the four Python ints
        for r in (0, 31, 32, 499):
            got = replicate_stream(seed, 6, 5, r).bit_generator
            ref = np.random.Philox(np.random.SeedSequence([seed, 6, 5, r]))
            # the repr spells out every array of the state in full
            assert repr(got.state) == repr(ref.state)
            assert np.array_equal(got.random_raw(8), ref.random_raw(8))

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
        c = gen_frailty(3, 2, frailty_params(censor=False, ct=None), replicate_stream(5, 3, 2, 2))
        assert a.line_index is b.line_index and a.tx is b.tx
        # uncensored data share the all-ones status; censored data draw their own
        line, tx, status, design = datagen._design_arrays(3, 2)
        assert a.status is status and c.status is status and b.status is not status
        assert status.tolist() == [1] * 12
        # every dataset carries the cell's record, whose codes index the line effects
        assert a._design is design and b._design is design and c._design is design
        assert design.codes.tolist() == (line - 1).tolist()
        assert design.codes.dtype == (line - 1).dtype
        for array in (a.tx, design.codes, status):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_line_indicator_matrix_is_built_at_first_use(self):
        # it holds k*N floats (800 MB for 1,000 lines of 100 animals) and only
        # the frailty fit reads it, so generating a cell must not build it
        design = datagen._design_arrays.__wrapped__(50, 20)[3]
        assert "member" not in vars(design)
        assert design.member.shape == (50, 2000) and "member" in vars(design)

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


def fresh_design(labels, tx):
    """The design record's fields, computed line by line."""
    order = list(dict.fromkeys(labels))
    codes = [order.index(v) for v in labels]
    k = len(order)
    sizes = [float(codes.count(i)) for i in range(k)]
    sx = [0.0] * k
    for c, t in zip(codes, tx):
        sx[c] += float(t)
    balanced = len(set(sizes)) == 1 and all(s == sizes[0] / 2 for s in sx)
    return dict(
        codes=codes, k=k, sizes=sizes, tx=[float(t) for t in tx], sx=sx, Sx=float(sum(tx)),
        both_arms=min(tx) != max(tx),
        J=sizes[0] if balanced else None,
        member=[[float(c == i) for c in codes] for i in range(k)],
        arm=[[1.0 - float(t) for t in tx], [float(t) for t in tx]],
    )


# unsorted labels with gaps (three lines, labelled 3, 7 and 12) and a float tx
USER_BUILT = SimulatedDataset(
    line_index=np.array([7, 3, 12, 7, 3, 12, 3, 7, 12, 3, 7, 12]),
    tx=np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]),
    y=np.array([2.5, 1.5, 4.75, 6.5, 1.25, 9.0, 2.5, 2.0, 5.25, 1.0, 5.5, 11.0]),
    status=np.ones(12, dtype=np.int64),
)


class TestDesignRecord:
    @pytest.mark.parametrize("source", ["generated", "user_built", "pilot"])
    def test_fields_match_a_fresh_computation(self, source):
        data = {"generated": gen_anova(4, 3, anova_params(), replicate_stream(5, 4, 3, 0)),
                "user_built": USER_BUILT, "pilot": pilot_uncensored()}[source]
        design, _, _ = _data.as_arrays(data)
        if source == "pilot":
            labels, tx = [r.id for r in data.rows], [r.tx for r in data.rows]
        else:
            labels, tx = data.line_index.tolist(), data.tx.tolist()
        expected = fresh_design(labels, tx)
        for name, value in expected.items():
            got = getattr(design, name)
            if isinstance(got, np.ndarray):
                assert not got.flags.writeable, name
                assert got.tolist() == value, name
            else:
                assert got == value and type(got) is type(value), name
        if source == "generated":
            assert design.J == 6.0

    def test_every_replicate_of_a_design_shares_one_record(self):
        a = gen_anova(4, 3, anova_params(), replicate_stream(5, 4, 3, 0))
        b = gen_anova(4, 3, anova_params(), replicate_stream(5, 4, 3, 1))
        assert _data.as_arrays(a)[0] is _data.as_arrays(b)[0]
        with pytest.raises(ValueError, match="read-only"):
            _data.as_arrays(a)[0].sizes[0] = 1.0

    def test_user_built_dataset_fits_as_its_relabellings(self):
        # the gapped labels {3, 7, 12} are three lines, so df = 12 - 3 - 1
        assert _data.as_arrays(USER_BUILT)[0].k == 3
        lmm_fit, frailty_fit = fit_lmm(USER_BUILT), fit_frailty(USER_BUILT)
        assert lmm_fit.converged and lmm_fit.df == 8.0 and frailty_fit.converged
        for labels in ({3: 1, 7: 2, 12: 3}, {3: "b", 7: "c", 12: "a"}):
            line_index = np.array([labels[v] for v in USER_BUILT.line_index.tolist()])
            data = dataclasses.replace(USER_BUILT, line_index=line_index)
            assert _data.as_arrays(data)[0].k == 3
            assert fit_lmm(data) == lmm_fit
            assert fit_frailty(data) == frailty_fit

    def test_pilot_ids_differing_in_a_trailing_nul_are_two_lines(self):
        rows = [PilotRecord(id=i, y=y, tx=t) for i, y, t in
                [("a", 1.0, 0), ("a", 2.0, 1), ("a\0", 3.0, 0), ("a\0", 4.0, 1)]]
        assert _data.as_arrays(PilotDataset(rows=rows))[0].k == 2

    @pytest.mark.parametrize("tx", [
        USER_BUILT.tx.astype(np.int64) * 2,
        np.where(np.arange(12) == 0, 0.5, USER_BUILT.tx),
        np.where(np.arange(12) == 0, np.nan, USER_BUILT.tx),
    ], ids=["0,2", "0,0.5,1", "nan"])
    @pytest.mark.parametrize("fit", [
        fit_lmm, fit_frailty, lambda data: frailty_loglik((0.3, 1.0, 0.5, 0.1), data),
    ], ids=["fit_lmm", "fit_frailty", "frailty_loglik"])
    def test_tx_other_than_0_or_1_is_refused(self, fit, tx):
        data = SimulatedDataset(line_index=USER_BUILT.line_index, tx=tx, y=USER_BUILT.y,
                                status=USER_BUILT.status)
        with pytest.raises(ValueError, match="tx must be 0 or 1"):
            fit(data)


# one replicate of each model at a cell, with a nonzero effect so that
# swapping the arms moves every fit
GENERATED = {
    "anova": lambda n, m: gen_anova(n, m, anova_params(beta=0.5), replicate_stream(11, n, m, 0)),
    "frailty": lambda n, m: gen_frailty(n, m, frailty_params(beta=-0.7),
                                        replicate_stream(11, n, m, 0)),
    "frailty_uncensored": lambda n, m: gen_frailty(
        n, m, frailty_params(beta=-0.7, censor=False, ct=None), replicate_stream(11, n, m, 0)),
}


def user_built(data, **over):
    """The same experiment as a user-built dataset, which carries no record."""
    arrays = {name: getattr(data, name) for name in ("line_index", "tx", "y", "status")}
    return SimulatedDataset(**(arrays | over))


@pytest.mark.parametrize("model", sorted(GENERATED))
@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (10, 8)])
class TestCarriedDesign:
    def test_carried_record_equals_a_built_one(self, model, n, m):
        data = GENERATED[model](n, m)
        carried = _data.as_arrays(data)[0]
        built = _data._build_design(data.line_index, data.tx)
        assert carried is data._design
        for name in [f.name for f in dataclasses.fields(_data.Design)] + ["member"]:
            got, want = getattr(carried, name), getattr(built, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            else:
                assert got == want and type(got) is type(want), name

    def test_fits_equal_those_of_the_user_built_dataset(self, model, n, m):
        data = GENERATED[model](n, m)
        same = user_built(data)
        assert same._design is None
        for fit in (fit_lmm, fit_frailty):
            assert fit(data) == fit(same)

    def test_replaced_tx_is_fitted_with_its_own_record(self, model, n, m):
        data = GENERATED[model](n, m)
        swapped = dataclasses.replace(data, tx=1 - data.tx)
        fresh = user_built(data, tx=1 - data.tx)
        for fit in (fit_lmm, fit_frailty):
            assert fit(swapped) == fit(fresh)
        # the carried record would have fitted the original arms
        assert fit_lmm(swapped) != fit_lmm(data)
