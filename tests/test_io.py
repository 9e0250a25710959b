from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from xenopower.io import (
    power_csv_text,
    power_json_dict,
    read_pilot_csv,
    read_power_csv,
    read_power_json,
    write_power_csv,
    write_power_json,
)
from xenopower.types import AnovaParams, FrailtyParams, PowerRow, PowerTable, ValidationError


class TestReadPilotCsv:
    def test_bundled_uncensored_pilot(self, pilot_lognormal):
        assert len(pilot_lognormal.rows) == 18
        assert len(pilot_lognormal.line_ids()) == 3
        for line in pilot_lognormal.line_ids():
            rows = [r for r in pilot_lognormal.rows if r.id == line]
            assert sum(r.tx == 0 for r in rows) == 3
            assert sum(r.tx == 1 for r in rows) == 3
        assert not pilot_lognormal.has_status

    def test_bundled_censored_pilot(self, pilot_survival):
        assert len(pilot_survival.rows) == 18
        censored_rows = [k for k, r in enumerate(pilot_survival.rows, start=1) if r.status == 0]
        assert censored_rows == [2, 6, 18]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="no data rows"):
            read_pilot_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("ID,Y,Tx\n")
        with pytest.raises(ValidationError, match="no data rows"):
            read_pilot_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ID,Y\n1,2.0\n")
        with pytest.raises(ValidationError, match="'tx'"):
            read_pilot_csv(path)

    def test_header_case_insensitive(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,y,TX,Status\na,1.0,0,1\nb,2.0,1,0\n")
        data = read_pilot_csv(path)
        assert data.rows[1].status == 0

    def test_parse_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ID,Y,Tx\n1,1.0,0\n2,oops,1\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_pilot_csv(path)

    def test_invariant_violation_names_row(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("ID,Y,Tx\n1,1.0,0\n1,2.0,1\n2,-3.0,0\n2,1.0,1\n")
        with pytest.raises(ValidationError, match="Y must be positive and finite at row 3"):
            read_pilot_csv(path)

    def test_nonbinary_tx_rejected(self, tmp_path):
        path = tmp_path / "tx.csv"
        path.write_text("ID,Y,Tx\n1,1.0,0\n2,2.0,2\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_pilot_csv(path)


def sample_table(model="frailty"):
    # awkward float values so round-trip failures would show
    if model == "anova":
        params = AnovaParams(beta0=1 / 3, beta=-1.0986122886681098, tau2=1 / 9, sigma2=1.0)
        cens = [None, None]
    else:
        params = FrailtyParams(lam=0.2888113, nu=1.0, beta=-1.0986122886681098, tau2=0.1,
                               censor=True, ct=12.0)
        cens = [100 / 7, 100 / 11]
    rows = (
        PowerRow(n=3, m=2, total_animals=12, power=100 / 3, convergence=100.0, censoring=cens[0]),
        PowerRow(n=3, m=3, total_animals=18, power=200 / 3, convergence=99.0, censoring=cens[1]),
    )
    return PowerTable(rows=rows, params=params, sim=500, alpha=0.05, seed=987654321)


class TestPowerCsv:
    def test_round_trip_full_precision(self, tmp_path):
        table = sample_table()
        path = tmp_path / "t.csv"
        write_power_csv(table, path)
        assert read_power_csv(path) == list(table.rows)

    def test_anova_csv_has_no_censoring_column(self, tmp_path):
        table = sample_table("anova")
        text = power_csv_text(table)
        assert text.splitlines()[0] == "n,m,N,power_pct,convergence_pct"
        path = tmp_path / "a.csv"
        write_power_csv(table, path)
        assert read_power_csv(path) == list(table.rows)

    def test_frailty_csv_header(self):
        text = power_csv_text(sample_table())
        assert text.splitlines()[0] == "n,m,N,power_pct,convergence_pct,censoring_pct"


class TestPowerJson:
    def test_round_trip(self, tmp_path):
        table = sample_table()
        frontier = [(3, 3)]
        path = tmp_path / "t.json"
        write_power_json(table, frontier, path)
        table2, frontier2 = read_power_json(path)
        assert table2 == table
        assert frontier2 == frontier

    def test_round_trip_anova(self, tmp_path):
        table = sample_table("anova")
        path = tmp_path / "a.json"
        write_power_json(table, [], path)
        table2, frontier2 = read_power_json(path)
        assert table2 == table
        assert frontier2 == []

    def test_foreign_model_tag_is_a_validation_error(self, tmp_path):
        doc = power_json_dict(sample_table(), [(3, 3)])
        doc["params"]["model"] = "cox"
        path = tmp_path / "cox.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        named = re.escape(str(path))
        with pytest.raises(ValidationError, match=f"{named} is malformed: unknown model 'cox'"):
            read_power_json(path)

    @pytest.mark.parametrize("part, key", [("params", "lambda"), ("row", "power"), ("doc", "seed")])
    def test_missing_key_is_a_validation_error(self, tmp_path, part, key):
        doc = power_json_dict(sample_table(), [(3, 3)])
        del {"params": doc["params"], "row": doc["rows"][0], "doc": doc}[part][key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"has no key '{key}'"):
            read_power_json(path)

    @pytest.mark.parametrize("text", [
        lambda doc: json.dumps([doc]),
        lambda doc: json.dumps(doc | {"params": None}),
        lambda doc: json.dumps(doc | {"rows": [[3, 2, 12]] + doc["rows"][1:]}),
        lambda doc: json.dumps(doc | {"frontier": [[1]]}),
        lambda doc: json.dumps(doc | {"params": doc["params"] | {"sim": "10"}}),
        lambda doc: json.dumps(doc)[:-1],
    ], ids=["top-level list", "null params", "row not an object", "frontier pair of one",
            "sim a string", "not JSON"])
    def test_malformed_document_is_a_validation_error(self, tmp_path, text):
        path = tmp_path / "malformed.json"
        path.write_text(text(power_json_dict(sample_table(), [(3, 3)])), encoding="utf-8")
        named = re.escape(str(path))
        with pytest.raises(ValidationError, match=f"power JSON file {named} is malformed"):
            read_power_json(path)

    def test_schema_shape(self):
        doc = power_json_dict(sample_table(), [(3, 3)])
        assert set(doc) == {"params", "rows", "frontier", "seed"}
        assert doc["params"]["model"] == "frailty"
        assert doc["params"]["sim"] == 500
        assert doc["params"]["alpha"] == 0.05
        assert doc["frontier"] == [[3, 3]]
        assert doc["seed"] == 987654321
        row = doc["rows"][0]
        assert set(row) == {"n", "m", "N", "power", "convergence", "censoring"}

    def test_numbers_survive_json_text(self, tmp_path):
        table = sample_table()
        path = tmp_path / "t.json"
        write_power_json(table, [], path)
        doc = json.loads(path.read_text())
        assert doc["rows"][0]["power"] == 100 / 3


ANOVA_JSON = """\
{
  "params": {
    "model": "anova",
    "beta0": 0.3333333333333333,
    "beta": -1.0986122886681098,
    "tau2": 0.1111111111111111,
    "sigma2": 1.0,
    "sim": 500,
    "alpha": 0.05
  },
  "rows": [
    {
      "n": 3,
      "m": 2,
      "N": 12,
      "power": 33.333333333333336,
      "convergence": 100.0,
      "censoring": null
    },
    {
      "n": 3,
      "m": 3,
      "N": 18,
      "power": 66.66666666666667,
      "convergence": 99.0,
      "censoring": null
    }
  ],
  "frontier": [],
  "seed": 987654321
}
"""

CENSORED_FRAILTY_JSON = """\
{
  "params": {
    "model": "frailty",
    "lambda": 0.2888113,
    "nu": 1.0,
    "beta": -1.0986122886681098,
    "tau2": 0.1,
    "censor": true,
    "ct": 12.0,
    "sim": 500,
    "alpha": 0.05
  },
  "rows": [
    {
      "n": 3,
      "m": 2,
      "N": 12,
      "power": 33.333333333333336,
      "convergence": 100.0,
      "censoring": 14.285714285714286
    },
    {
      "n": 3,
      "m": 3,
      "N": 18,
      "power": 66.66666666666667,
      "convergence": 99.0,
      "censoring": 9.090909090909092
    }
  ],
  "frontier": [
    [
      3,
      3
    ]
  ],
  "seed": 987654321
}
"""

UNCENSORED_FRAILTY_JSON = """\
{
  "params": {
    "model": "frailty",
    "lambda": 0.2888113,
    "nu": 1.0,
    "beta": -1.0986122886681098,
    "tau2": 0.1,
    "censor": false,
    "ct": null,
    "sim": 500,
    "alpha": 0.05
  },
  "rows": [
    {
      "n": 3,
      "m": 2,
      "N": 12,
      "power": 33.333333333333336,
      "convergence": 100.0,
      "censoring": 0.0
    },
    {
      "n": 3,
      "m": 3,
      "N": 18,
      "power": 66.66666666666667,
      "convergence": 99.0,
      "censoring": 0.0
    }
  ],
  "frontier": [
    [
      3,
      2
    ],
    [
      3,
      3
    ]
  ],
  "seed": 987654321
}
"""


def uncensored_frailty_table():
    table = sample_table()
    return replace(table, params=replace(table.params, censor=False, ct=None),
                   rows=tuple(replace(r, censoring=0.0) for r in table.rows))


class TestPowerJsonText:
    # the exact bytes written: key order, indent=2 and the trailing newline
    @pytest.mark.parametrize("make_table, frontier, text", [
        (lambda: sample_table("anova"), [], ANOVA_JSON),
        (sample_table, [(3, 3)], CENSORED_FRAILTY_JSON),
        (uncensored_frailty_table, [(3, 2), (3, 3)], UNCENSORED_FRAILTY_JSON),
    ], ids=["anova", "censored-frailty", "uncensored-frailty"])
    def test_written_text_is_pinned(self, tmp_path, make_table, frontier, text):
        table = make_table()
        path = tmp_path / "t.json"
        write_power_json(table, frontier, path)
        assert path.read_bytes() == text.encode("utf-8")
        assert read_power_json(path) == (table, frontier)
