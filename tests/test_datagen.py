from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.stats import kstest

from xenopower import _data, datagen
from xenopower.datagen import SimulatedDataset, gen_anova, gen_frailty, replicate_stream
from xenopower.datasets import pilot_uncensored
from xenopower.engine import PowerJob, run_power_grid
from xenopower.frailty import fit_frailty, frailty_loglik
from xenopower.lmm import fit_lmm
from xenopower.types import AnovaParams, DesignGrid, FrailtyParams, PilotDataset, PilotRecord


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

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64 + 5])
    def test_stream_matches_the_list_seed_sequence(self, seed):
        # the block-hashed keys are the ones SeedSequence hashes of the four
        # Python ints, at both ends of a block and where r grows a second word
        for n, m in ((1, 1), (6, 5), (10, 8)):
            for r in (0, 1, 31, 32, 499, 511, 512, 1023, 2**32 - 1, 2**32, 2**32 + 511):
                [stream] = datagen._chunk_streams(seed, n, m, r, r + 1)
                got = stream.bit_generator
                ref = np.random.Philox(np.random.SeedSequence([seed, n, m, r]))
                # the repr spells out every array of the state in full
                assert repr(got.state) == repr(ref.state)
                assert np.array_equal(got.random_raw(8), ref.random_raw(8))

    def test_seed_seq_is_the_oracles(self):
        got = replicate_stream(3, 6, 5, 700).bit_generator.seed_seq
        ref = np.random.SeedSequence([3, 6, 5, 700])
        assert type(got) is np.random.SeedSequence
        assert repr(got) == repr(ref)
        assert (got.spawn_key, got.n_children_spawned) == (ref.spawn_key, ref.n_children_spawned)

    def test_stream_survives_a_pickle_round_trip(self):
        stream = replicate_stream(8, 3, 2, 600)
        stream.random(3)
        again = pickle.loads(pickle.dumps(stream))
        assert np.array_equal(again.random(16), stream.random(16))
        assert repr(again.bit_generator.state) == repr(stream.bit_generator.state)

    @pytest.mark.parametrize("args", [(1, 3.7, 2, 0), (1.5, 3, 2, 0), (1, 3, 2.0, 0),
                                      (1, 3, 2, np.float64(4.0))])
    def test_non_integer_coordinates_raise_as_the_seed_sequence_does(self, args):
        # int() would truncate 3.7 to 3 and hand out the (1, 3, 2, 0) stream
        with pytest.raises(TypeError):
            np.random.SeedSequence(list(args))
        with pytest.raises(TypeError):
            replicate_stream(*args)

    def test_numpy_integer_coordinates_give_the_seed_sequence_stream(self):
        args = (np.uint64(2**63), np.int32(6), np.int64(5), np.uint16(700))
        got = replicate_stream(*args).bit_generator
        ref = np.random.Philox(np.random.SeedSequence([int(a) for a in args]))
        assert np.array_equal(got.random_raw(8), ref.random_raw(8))

    @pytest.mark.parametrize("args", [(-1, 3, 2, 0), (1, -3, 2, 0), (1, 3, -2, 0), (1, 3, 2, -1)])
    def test_negative_entropy_rejected(self, args):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            replicate_stream(*args)

    def test_streams_of_one_block_draw_independently(self):
        a, b = replicate_stream(4, 3, 2, 10), replicate_stream(4, 3, 2, 11)
        b_first = replicate_stream(4, 3, 2, 11).random(8)
        a.random(100)  # drawing from a moves b by nothing
        assert np.array_equal(b.random(8), b_first)
        assert not np.array_equal(replicate_stream(4, 3, 2, 10).random(8), b_first)

    def test_grid_run_builds_no_seed_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence built")

        # a bit generator builds the SeedSequence of an int seed through its
        # own reference, which the refusal does not see, so every Philox
        # built must also be seeded from the one unkeyed SeedSequence
        def spy(*args, **kwargs):
            seeds.append((args, kwargs))
            return philox(*args, **kwargs)

        seeds = []
        philox = datagen.np.random.Philox
        monkeypatch.setattr(datagen.np.random, "SeedSequence", refuse)
        monkeypatch.setattr(datagen.np.random, "Philox", spy)
        grid = DesignGrid(n_values=(3, 4), m_values=(2,), sim=600, seed=11)
        rows = run_power_grid(PowerJob(grid=grid, model=anova_params(beta=1.0), worker_count=1)).rows
        assert all(row.convergence > 0 for row in rows)
        assert len(seeds) == 4  # one per chunk
        assert all(len(args) == 1 and args[0] is datagen._UNKEYED and not kwargs
                   for args, kwargs in seeds)

    def test_replicates_differ(self):
        p = anova_params()
        a = gen_anova(4, 3, p, replicate_stream(99, 4, 3, 0))
        b = gen_anova(4, 3, p, replicate_stream(99, 4, 3, 1))
        assert not np.array_equal(a.y, b.y)


class TestChunkStreams:
    """datagen._chunk_streams, the re-keyed generator of a chunk, against
    its oracle replicate_stream."""

    @staticmethod
    def draws(stream):
        # gen_*'s order (normals, then uniforms), leaving Philox's buffer part
        # used, then an odd number of 32-bit draws, leaving a half word
        return [stream.standard_normal(3), stream.random(5), stream.random(3, dtype=np.float32)]

    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1])
    @pytest.mark.parametrize("n, m", [(3, 2), (10, 8), (2**32 + 3, 2**40 + 1)])
    @pytest.mark.parametrize("r_start, r_stop", [(0, 4), (500, 530), (1020, 1030),
                                                 (2**32 - 2, 2**32 + 2)])
    def test_draws_what_replicate_stream_draws(self, seed, n, m, r_start, r_stop):
        # 500..530 and 1020..1030 cross a block of keys; r grows a second word at 2**32
        r = r_start
        for stream in datagen._chunk_streams(seed, n, m, r_start, r_stop):
            ref = replicate_stream(seed, n, m, r)
            assert repr(stream.bit_generator.state) == repr(ref.bit_generator.state), r
            for got, expected in zip(self.draws(stream), self.draws(ref)):
                assert got.tobytes() == expected.tobytes(), r
            r += 1
        assert r == r_stop

    def test_one_generator_is_re_keyed(self):
        # each yielded stream is valid only until the next one is drawn
        streams = list(datagen._chunk_streams(4, 3, 2, 510, 515))
        assert len(streams) == 5 and all(s is streams[0] for s in streams)
        assert list(datagen._chunk_streams(4, 3, 2, 7, 7)) == []


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

    @pytest.mark.parametrize("gen, params", [
        (gen_anova, anova_params()),
        (gen_frailty, frailty_params()),
        (gen_frailty, frailty_params(censor=False, ct=None)),
    ], ids=["anova", "frailty", "uncensored"])
    def test_a_dataset_is_the_one_row_stack(self, monkeypatch, gen, params):
        # the engine's chunks draw through _simulate; gen_* are its one-row case
        calls = []

        def spy(*args):
            stacked = simulate(*args)
            calls.append(stacked)
            return stacked

        simulate = datagen._simulate
        monkeypatch.setattr(datagen, "_simulate", spy)
        ds = gen(3, 2, params, replicate_stream(5, 3, 2, 0))
        ((y, status, censoring),) = calls
        assert y.shape == (1, 12) and ds.y.tobytes() == y[0].tobytes()
        assert (status is None) == (not getattr(params, "censor", False))
        assert censoring[0] == ds.censoring_fraction

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
        J=sizes[0] if balanced else None,
    )


# unsorted labels with gaps (three lines, labelled 3, 7 and 12) and a float tx
USER_BUILT = SimulatedDataset(
    line_index=np.array([7, 3, 12, 7, 3, 12, 3, 7, 12, 3, 7, 12]),
    tx=np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]),
    y=np.array([2.5, 1.5, 4.75, 6.5, 1.25, 9.0, 2.5, 2.0, 5.25, 1.0, 5.5, 11.0]),
    status=np.ones(12, dtype=np.int64),
)


# the three public calls that read a dataset through as_arrays
ENTRY_POINTS = {
    "fit_lmm": fit_lmm,
    "fit_frailty": fit_frailty,
    "frailty_loglik": lambda data: frailty_loglik((0.3, 1.0, 0.5, 0.1), data),
}


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

    @pytest.mark.parametrize("fit", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_container_of_neither_dataset_type_is_refused(self, fit):
        columns = {"line_index": USER_BUILT.line_index, "tx": USER_BUILT.tx, "y": USER_BUILT.y}
        with pytest.raises(TypeError, match="expected SimulatedDataset or PilotDataset, got dict"):
            fit(columns)

    def test_pilot_ids_differing_in_a_trailing_nul_are_two_lines(self):
        rows = [PilotRecord(id=i, y=y, tx=t) for i, y, t in
                [("a", 1.0, 0), ("a", 2.0, 1), ("a\0", 3.0, 0), ("a\0", 4.0, 1)]]
        assert _data.as_arrays(PilotDataset(rows=rows))[0].k == 2

    @pytest.mark.parametrize("tx", [
        USER_BUILT.tx.astype(np.int64) * 2,
        np.where(np.arange(12) == 0, 0.5, USER_BUILT.tx),
        np.where(np.arange(12) == 0, np.nan, USER_BUILT.tx),
    ], ids=["0,2", "0,0.5,1", "nan"])
    @pytest.mark.parametrize("fit", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_tx_other_than_0_or_1_is_refused(self, fit, tx):
        data = SimulatedDataset(line_index=USER_BUILT.line_index, tx=tx, y=USER_BUILT.y,
                                status=USER_BUILT.status)
        with pytest.raises(ValueError, match="tx must be 0 or 1"):
            fit(data)

    @pytest.mark.parametrize("change, message", [
        (dict(line_index=np.full(12, 7)), "2 distinct lines"),
        (dict(tx=np.zeros(12)), "both treatment arms"),
        (dict(tx=np.ones(12)), "both treatment arms"),
        (dict(y=np.where(np.arange(12) == 0, 0.0, USER_BUILT.y)), "positive"),
        (dict(y=-USER_BUILT.y), "positive"),
        (dict(y=np.where(np.arange(12) == 0, np.inf, USER_BUILT.y)), "positive and finite"),
        (dict(y=np.where(np.arange(12) == 0, np.nan, USER_BUILT.y)), "positive and finite"),
        (dict(status=np.where(np.arange(12) == 0, 2, 1)), "status must be 0 or 1"),
        (dict(status=np.where(np.arange(12) == 0, -1, 1)), "status must be 0 or 1"),
        (dict(status=np.where(np.arange(12) == 0, 0.5, 1.0)), "status must be 0 or 1"),
        (dict(status=USER_BUILT.status[:-1]), "one entry per animal"),
        (dict(tx=USER_BUILT.tx[:-1]), "one entry per animal"),
        (dict(y=USER_BUILT.y[1:]), "one entry per animal"),
        (dict(line_index=USER_BUILT.line_index[:-1]), "one entry per animal"),
        (dict(line_index=USER_BUILT.line_index[:0], tx=USER_BUILT.tx[:0], y=USER_BUILT.y[:0],
              status=USER_BUILT.status[:0]), "dataset is empty"),
    ], ids=["one line", "control only", "treated only", "y=0", "y<0", "y=inf", "y=nan", "status 2",
            "status -1", "status 0.5", "status short", "tx short", "y short", "lines short",
            "empty"])
    @pytest.mark.parametrize("fit", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_data_no_model_can_fit_is_refused_by_every_entry_point(self, fit, change, message):
        with pytest.raises(ValueError, match=message):
            fit(dataclasses.replace(USER_BUILT, **change))

    @pytest.mark.parametrize("fit", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_a_generated_single_line_is_refused_when_fitted(self, fit):
        # the generator builds the cell; its carried record cannot be fitted
        data = gen_anova(1, 2, anova_params(), replicate_stream(5, 1, 2, 0))
        with pytest.raises(ValueError, match="2 distinct lines"):
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
        for name in [f.name for f in dataclasses.fields(_data.Design)]:
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


class TestDatasetEquality:
    def test_copies_equal_the_generated_dataset(self):
        data = GENERATED["frailty"](3, 2)
        copy = SimulatedDataset(data.line_index.copy(), data.tx, data.y, data.status)
        assert data == copy and copy == data and not data != copy
        # the carried design record takes no part
        assert data._design is not None and copy._design is None
        assert user_built(data, y=data.y.copy()) == data

    def test_a_differing_y_is_unequal(self):
        data = GENERATED["anova"](3, 2)
        y = data.y.copy()
        y[-1] += 1.0
        assert data != user_built(data, y=y)

    def test_a_non_dataset_is_unequal(self):
        data = GENERATED["anova"](3, 2)
        assert data != (data.line_index, data.tx, data.y, data.status)
        assert data != None  # noqa: E711

    def test_datasets_stay_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(GENERATED["anova"](3, 2))
