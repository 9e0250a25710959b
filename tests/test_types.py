from __future__ import annotations

import numpy as np
import pytest

from xenopower.types import (
    AnovaParams,
    DesignGrid,
    FrailtyParams,
    PilotDataset,
    PilotRecord,
    PowerRow,
    PowerTable,
    ValidationError,
    validate_grid,
)


def make_grid(**over):
    base = dict(n_values=tuple(range(3, 11)), m_values=tuple(range(2, 9)),
                sim=500, alpha=0.05, seed=42)
    base.update(over)
    return DesignGrid(**base)


class TestDesignGrid:
    def test_reference_grid_is_valid(self):
        grid = make_grid()
        assert validate_grid(grid) is grid

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValidationError, match="alpha must lie strictly between 0 and 1"):
            validate_grid(make_grid(alpha=0.0))

    def test_alpha_one_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            validate_grid(make_grid(alpha=1.0))

    def test_zero_m_rejected(self):
        with pytest.raises(ValidationError, match="m_values"):
            validate_grid(make_grid(m_values=(0, 1, 2)))

    def test_n_below_two_rejected(self):
        with pytest.raises(ValidationError, match="n_values"):
            validate_grid(make_grid(n_values=(1, 2, 3)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="duplicate-free"):
            validate_grid(make_grid(m_values=(2, 2, 3)))

    def test_descending_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            validate_grid(make_grid(n_values=(5, 3)))

    def test_zero_sim_rejected(self):
        with pytest.raises(ValidationError, match="sim"):
            validate_grid(make_grid(sim=0))

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            validate_grid(make_grid(n_values=()))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            validate_grid(make_grid(seed=-1))

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("sim", 4.5), ("sim", True)])
    def test_non_integer_sim_or_seed_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            make_grid(**{field: value})

    def test_numpy_integer_sim_and_seed_accepted(self):
        grid = make_grid(sim=np.int64(4), seed=np.uint64(2**63))
        assert validate_grid(grid) is grid

    @pytest.mark.parametrize("field, values", [
        ("n_values", (2.5, 3.9)), ("m_values", (1.7,)), ("n_values", (3, 4.0)),
        ("m_values", (True, 2)),
    ])
    def test_non_integer_grid_entries_rejected(self, field, values):
        # int() used to truncate these: (2.5, 3.9) became (2, 3)
        with pytest.raises(ValidationError, match=f"{field} entries must be integers"):
            make_grid(**{field: values})

    def test_numpy_integer_and_range_entries_accepted(self):
        grid = make_grid(n_values=np.arange(3, 6), m_values=range(1, 3))
        assert grid.n_values == (3, 4, 5) and grid.m_values == (1, 2)
        assert all(type(v) is int for v in grid.n_values + grid.m_values)


class TestAnovaParams:
    def test_icc_exact(self):
        p = AnovaParams(beta0=0.0, beta=0.0, tau2=0.1111111, sigma2=1.0)
        assert p.icc == pytest.approx(0.1, abs=1e-6)

    def test_icc_zero_when_no_heterogeneity(self):
        assert AnovaParams(beta0=0.0, beta=0.0, tau2=0.0, sigma2=2.0).icc == 0.0

    def test_negative_tau2_rejected(self):
        with pytest.raises(ValidationError, match="tau2"):
            AnovaParams(beta0=0.0, beta=0.0, tau2=-0.1, sigma2=1.0)

    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(ValidationError, match="sigma2"):
            AnovaParams(beta0=0.0, beta=0.0, tau2=0.1, sigma2=0.0)

    @pytest.mark.parametrize("field, value", [
        ("beta0", float("nan")), ("beta", float("-inf")), ("tau2", float("inf")),
        ("sigma2", float("inf")),
        # a nan fails the sign checks too, which used to report it first
        ("tau2", float("nan")), ("sigma2", float("nan")),
    ])
    def test_non_finite_fields_rejected(self, field, value):
        kwargs = dict(beta0=0.0, beta=0.0, tau2=0.1, sigma2=1.0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            AnovaParams(**kwargs)

    @pytest.mark.parametrize("value", [True, np.False_])
    @pytest.mark.parametrize("field", ["beta0", "beta", "tau2", "sigma2"])
    def test_bool_fields_rejected(self, field, value):
        kwargs = dict(beta0=0.0, beta=0.0, tau2=0.1, sigma2=1.0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be a number, got"):
            AnovaParams(**kwargs)

    @pytest.mark.parametrize("field", ["beta0", "beta", "tau2", "sigma2"])
    def test_string_fields_rejected(self, field):
        # math.isfinite raised TypeError on a string
        kwargs = dict(beta0=0.0, beta=0.0, tau2=0.1, sigma2=1.0)
        kwargs[field] = "1"
        with pytest.raises(ValidationError, match=f"{field} must be a number, got '1'"):
            AnovaParams(**kwargs)


class TestFrailtyParams:
    def test_valid(self):
        p = FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=True, ct=8.0)
        assert p.ct == 8.0

    def test_censor_requires_ct(self):
        with pytest.raises(ValidationError, match="ct"):
            FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=True, ct=None)

    @pytest.mark.parametrize("field,value", [("lam", 0.0), ("nu", -1.0), ("tau2", -0.01)])
    def test_bad_positive_fields(self, field, value):
        kwargs = dict(lam=0.3, nu=1.0, beta=0.0, tau2=0.2)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            FrailtyParams(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("lam", float("inf")), ("nu", float("inf")), ("beta", float("nan")),
        ("tau2", float("inf")),
        ("lam", float("nan")), ("nu", float("nan")), ("tau2", float("nan")),
    ])
    def test_non_finite_fields_rejected(self, field, value):
        kwargs = dict(lam=0.3, nu=1.0, beta=0.0, tau2=0.2)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            FrailtyParams(**kwargs)

    @pytest.mark.parametrize("value", [True, np.True_])
    @pytest.mark.parametrize("field", ["lam", "nu", "beta", "tau2"])
    def test_bool_fields_rejected(self, field, value):
        kwargs = dict(lam=0.3, nu=1.0, beta=0.0, tau2=0.2)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be a number, got"):
            FrailtyParams(**kwargs)

    @pytest.mark.parametrize("field", ["lam", "nu", "beta", "tau2"])
    def test_string_fields_rejected(self, field):
        # math.isfinite raised TypeError on a string
        kwargs = dict(lam=0.3, nu=1.0, beta=0.0, tau2=0.2)
        kwargs[field] = "1"
        with pytest.raises(ValidationError, match=f"{field} must be a number, got '1'"):
            FrailtyParams(**kwargs)

    @pytest.mark.parametrize("ct", [True, np.True_])
    def test_bool_censoring_time_rejected(self, ct):
        with pytest.raises(ValidationError, match="ct must be a positive finite"):
            FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=True, ct=ct)

    @pytest.mark.parametrize("censor", ["no", "", 1, 0, np.int64(1), 1.0, None])
    def test_censor_other_than_a_bool_rejected(self, censor):
        # a truthy string used to turn censoring on
        with pytest.raises(ValidationError, match="censor must be a bool"):
            FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=censor, ct=5.0)

    def test_numpy_bool_censor_stored_as_a_bool(self):
        on = FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=np.True_, ct=5.0)
        off = FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=np.False_)
        assert (type(on.censor), on.censor) == (bool, True)
        assert (type(off.censor), off.censor) == (bool, False)

    def test_infinite_censoring_time_rejected(self):
        with pytest.raises(ValidationError, match="ct must be a positive finite"):
            FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=True, ct=float("inf"))

    @pytest.mark.parametrize("ct", [float("nan"), -3.0, 12.0])
    def test_censoring_time_without_censoring_rejected(self, ct):
        # an unused ct would be echoed into the JSON header (nan is not JSON)
        with pytest.raises(ValidationError, match="only used with censor=True"):
            FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=False, ct=ct)


class TestPilotDataset:
    def test_nonpositive_y_named_with_row(self):
        rows = [PilotRecord("a", 1.0, 0), PilotRecord("b", -2.0, 1)]
        with pytest.raises(ValidationError, match="Y must be positive and finite at row 2"):
            PilotDataset(rows=tuple(rows))

    @pytest.mark.parametrize("y", [float("inf"), float("nan")])
    def test_non_finite_y_named_with_row(self, y):
        rows = [PilotRecord("a", 1.0, 0), PilotRecord("b", y, 1)]
        with pytest.raises(ValidationError, match="Y must be positive and finite at row 2"):
            PilotDataset(rows=tuple(rows))

    def test_bad_tx_rejected(self):
        rows = [PilotRecord("a", 1.0, 0), PilotRecord("b", 2.0, 2)]
        with pytest.raises(ValidationError, match="Tx"):
            PilotDataset(rows=tuple(rows))

    def test_single_line_rejected(self):
        rows = [PilotRecord("a", 1.0, 0), PilotRecord("a", 2.0, 1)]
        with pytest.raises(ValidationError, match="2 distinct line"):
            PilotDataset(rows=tuple(rows))

    def test_single_arm_rejected(self):
        rows = [PilotRecord("a", 1.0, 0), PilotRecord("b", 2.0, 0)]
        with pytest.raises(ValidationError, match="both treatment arms"):
            PilotDataset(rows=tuple(rows))

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="no data rows"):
            PilotDataset(rows=())

    def test_bad_status_named_with_row(self):
        rows = [PilotRecord("a", 1.0, 0, 1), PilotRecord("b", 2.0, 1, 2)]
        with pytest.raises(ValidationError, match=r"status must be 0 or 1 at row 2 \(got 2\)"):
            PilotDataset(rows=tuple(rows))

    @pytest.mark.parametrize("row, match", [
        (PilotRecord("b", True, 1), "Y at row 2 must be a number"),
        (PilotRecord("b", "2.0", 1), "Y at row 2 must be a number"),
        (PilotRecord("b", 2.0, True), "Tx must be 0 or 1 at row 2"),
        (PilotRecord("b", 2.0, 1.0), "Tx must be 0 or 1 at row 2"),
        (PilotRecord("b", 2.0, 1, True), "status must be 0 or 1 at row 2"),
        (PilotRecord(1, 2.0, 1), "line id must be a string at row 2"),
        (PilotRecord(None, 2.0, 1), "line id must be a string at row 2"),
    ], ids=["bool-y", "str-y", "bool-tx", "float-tx", "bool-status", "int-id", "none-id"])
    def test_wrongly_typed_fields_named_with_row(self, row, match):
        rows = [PilotRecord("a", 1.0, 0, 1), row]
        with pytest.raises(ValidationError, match=match):
            PilotDataset(rows=tuple(rows))

    def test_numpy_numbers_accepted(self):
        rows = [PilotRecord("a", np.float64(1.0), np.int64(0), np.int64(1)),
                PilotRecord("b", np.float32(2.0), np.int8(1), np.uint8(0))]
        assert PilotDataset(rows=tuple(rows)).line_ids() == ("a", "b")

    def test_line_ids_first_appearance_order(self):
        rows = [PilotRecord("x9", 1.0, 0), PilotRecord("a1", 2.0, 1), PilotRecord("x9", 3.0, 1)]
        assert PilotDataset(rows=tuple(rows)).line_ids() == ("x9", "a1")


class TestPowerTable:
    def test_total_animals_identity(self):
        row = PowerRow(n=10, m=8, total_animals=160, power=100.0, convergence=100.0)
        assert row.total_animals == 160
        with pytest.raises(ValidationError, match="total_animals"):
            PowerRow(n=10, m=8, total_animals=161, power=100.0, convergence=100.0)

    def test_power_bounds(self):
        with pytest.raises(ValidationError, match="power"):
            PowerRow(n=3, m=2, total_animals=12, power=100.5, convergence=100.0)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    @pytest.mark.parametrize("field", ["power", "convergence", "censoring"])
    def test_bool_percentages_rejected(self, field, value):
        kwargs = dict(n=3, m=2, total_animals=12, power=50.0, convergence=100.0, censoring=10.0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must lie in \\[0,100\\], got"):
            PowerRow(**kwargs)

    def test_row_order_enforced(self):
        rows = (
            PowerRow(n=4, m=2, total_animals=16, power=10.0, convergence=100.0),
            PowerRow(n=3, m=2, total_animals=12, power=10.0, convergence=100.0),
        )
        params = AnovaParams(beta0=0.0, beta=0.0, tau2=0.0, sigma2=1.0)
        with pytest.raises(ValidationError, match="ordered"):
            PowerTable(rows=rows, params=params, sim=10, alpha=0.05, seed=1)

    def test_censoring_on_every_row_or_none(self):
        # a mixed table once reached power_csv_text, which raised TypeError
        rows = (
            PowerRow(n=2, m=1, total_animals=4, power=50.0, convergence=100.0, censoring=10.0),
            PowerRow(n=2, m=2, total_animals=8, power=60.0, convergence=100.0),
        )
        params = FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2, censor=True, ct=5.0)
        with pytest.raises(ValidationError, match="censoring"):
            PowerTable(rows=rows, params=params, sim=10, alpha=0.05, seed=1)
        censored = (rows[0], PowerRow(n=2, m=2, total_animals=8, power=60.0,
                                      convergence=100.0, censoring=0.0))
        assert PowerTable(rows=censored, params=params, sim=10, alpha=0.05, seed=1).has_censoring
        assert not PowerTable(rows=rows[1:], params=params, sim=10, alpha=0.05,
                              seed=1).has_censoring

    def test_anova_table_carries_no_censoring(self):
        rows = (PowerRow(n=2, m=1, total_animals=4, power=50.0, convergence=100.0,
                         censoring=10.0),)
        params = AnovaParams(beta0=0.0, beta=0.0, tau2=0.0, sigma2=1.0)
        with pytest.raises(ValidationError, match="AnovaParams"):
            PowerTable(rows=rows, params=params, sim=10, alpha=0.05, seed=1)

    @pytest.mark.parametrize("field, value, message", [
        ("sim", "10", "sim must be an integer"), ("sim", 0, "sim must be at least 1"),
        ("alpha", 1.0, "alpha must lie strictly"), ("alpha", "0.05", "alpha must lie strictly"),
        ("seed", 1.0, "seed must be an integer"), ("seed", 2**64, "seed must be a 64-bit"),
    ])
    def test_run_settings_pass_the_grid_checks(self, field, value, message):
        params = AnovaParams(beta0=0.0, beta=0.0, tau2=0.0, sigma2=1.0)
        settings = dict(sim=10, alpha=0.05, seed=1) | {field: value}
        with pytest.raises(ValidationError, match=message):
            PowerTable(rows=(), params=params, **settings)
        with pytest.raises(ValidationError, match=message):
            make_grid(**{field: value})

    def test_cell_lookup(self):
        rows = (PowerRow(n=3, m=2, total_animals=12, power=50.0, convergence=100.0),)
        params = AnovaParams(beta0=0.0, beta=0.0, tau2=0.0, sigma2=1.0)
        table = PowerTable(rows=rows, params=params, sim=10, alpha=0.05, seed=1)
        assert table.cell(3, 2).power == 50.0
        with pytest.raises(KeyError):
            table.cell(4, 2)

    def test_params_alone_name_the_model(self):
        # a separate model label could contradict the params it came with
        params = FrailtyParams(lam=0.3, nu=1.0, beta=0.0, tau2=0.2)
        with pytest.raises(TypeError, match="model"):
            PowerTable(rows=(), model="anova", params=params, sim=10, alpha=0.05, seed=1)
