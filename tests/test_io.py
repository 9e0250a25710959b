from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from xenopower.datasets import pilot_path
from xenopower.io import (
    _JSON_KEYS,
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

    def test_unknown_bundled_pilot_name_is_refused(self):
        with pytest.raises(ValueError, match="unknown pilot dataset 'lognormal'"):
            pilot_path("lognormal")

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

    @pytest.mark.parametrize("name", ["uncensored", "censored"])
    def test_byte_order_mark_is_skipped(self, tmp_path, name):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + pilot_path(name).read_bytes())
        assert read_pilot_csv(path) == read_pilot_csv(pilot_path(name))

    @pytest.mark.parametrize("header, duplicate", [
        ("ID,Y,Tx,y", "'y'"), ("id,Y,Tx,ID", "'ID'"), ("ID,Y,Tx,status,Status", "'Status'"),
    ])
    def test_duplicate_column_is_rejected(self, tmp_path, header, duplicate):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n" + "".join(f"{k},1.0,{k % 2},1,1\n" for k in range(4)))
        with pytest.raises(ValidationError, match=f"duplicate column {duplicate}"):
            read_pilot_csv(path)

    def test_blank_and_whitespace_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("ID,Y,Tx\na,1.0,0\n\n   \n , ,\t\nb,2.0,1\n\n")
        assert [(r.id, r.y, r.tx) for r in read_pilot_csv(path).rows] == [("a", 1.0, 0),
                                                                          ("b", 2.0, 1)]

    @pytest.mark.parametrize("line", ["b,oops,1", "b,-2.0,1"])
    def test_errors_after_a_blank_line_count_only_data_rows(self, tmp_path, line):
        # a parse error and a bad Y on the third data line both name row 3
        path = tmp_path / "gap.csv"
        path.write_text(f"ID,Y,Tx\na,1.0,0\na,1.5,1\n\n{line}\nb,2.0,0\n")
        with pytest.raises(ValidationError, match=r"row 3\b"):
            read_pilot_csv(path)

    def test_repeated_unused_column_is_kept(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("ID,Y,Tx,note,note\na,1.0,0,x,y\nb,2.0,1,,\n")
        assert [r.y for r in read_pilot_csv(path).rows] == [1.0, 2.0]


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

    @pytest.mark.parametrize("text, message", [
        ("n,m,N,power_pct,convergence_pct\n2.5,1,5,50.0,100.0\n", "is malformed: invalid literal"),
        ("n,m,power_pct,convergence_pct\n3,2,50.0,100.0\n", "has no column 'N'"),
        ("n,m,N,power_pct,convergence_pct\n3,2,12\n", "is malformed"),
        ("", "has no column 'n'"),
        ("foo,bar\n", "has no column 'n'"),
    ], ids=["n=2.5", "no N column", "short row", "empty", "foo,bar"])
    def test_malformed_csv_is_a_validation_error_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"power CSV file {re.escape(str(path))} {message}"):
            read_power_csv(path)

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("n,m,N,power_pct,convergence_pct\n")
        assert read_power_csv(path) == []


# a valid row's fields with one replaced, as a tampered file would hold them
OUT_OF_RANGE_ROWS = [
    {"convergence": 150.0}, {"convergence": math.nan}, {"convergence": -0.5},
    {"censoring": -5.0}, {"censoring": math.inf}, {"censoring": math.nan},
    {"power": math.nan},
]


class TestPowerRowRanges:
    @pytest.mark.parametrize("change", OUT_OF_RANGE_ROWS, ids=repr)
    def test_csv_with_an_out_of_range_percentage_is_rejected(self, tmp_path, change):
        table = sample_table()
        path = tmp_path / "t.csv"
        header, first, *rest = power_csv_text(table).splitlines()
        columns = header.split(",")
        values = first.split(",")
        (name, value), = change.items()
        values[columns.index(f"{name}_pct")] = repr(value)
        path.write_text("\n".join([header, ",".join(values), *rest]) + "\n")
        with pytest.raises(ValidationError, match=f"{name} must lie in \\[0,100\\]"):
            read_power_csv(path)

    @pytest.mark.parametrize("change", OUT_OF_RANGE_ROWS + [
        {"n": 2.5, "total_animals": 10}, {"n": True, "total_animals": 4},
        {"m": 0, "total_animals": 0}, {"n": -3, "m": -2, "total_animals": 12},
        {"m": 2.0}, {"total_animals": 12.0},
    ], ids=repr)
    def test_json_with_an_invalid_row_is_rejected(self, tmp_path, change):
        doc = power_json_dict(sample_table(), [])
        doc["rows"][0].update({_JSON_KEYS.get(k, k): v for k, v in change.items()})
        path = tmp_path / "t.json"
        # json writes nan and inf as the NaN and Infinity that it reads back
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"is malformed: {next(iter(change))} must"):
            read_power_json(path)

    def test_limits_are_accepted(self):
        row = sample_table().rows[0]
        for name in ("power", "convergence", "censoring"):
            for value in (0.0, 100.0):
                assert getattr(replace(row, **{name: value}), name) == value
        assert replace(row, n=np.int64(3), m=np.int32(2)).n == 3


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
        lambda doc: json.dumps(doc | {"frontier": [[1.9, "2"], [9, 9]]}),
        lambda doc: json.dumps(doc | {"frontier": [[3.0, 3]]}),
        lambda doc: json.dumps(doc | {"frontier": [[3, "3"]]}),
        lambda doc: json.dumps(doc | {"frontier": [[True, 2]]}),
        lambda doc: json.dumps(doc | {"frontier": [[3, 3], [9, 9]]}),
        lambda doc: json.dumps(doc | {"frontier": ["32"]}),
        lambda doc: json.dumps(doc | {"params": doc["params"] | {"sim": "10"}}),
        lambda doc: json.dumps(doc)[:-1],
    ], ids=["top-level list", "null params", "row not an object", "frontier pair of one",
            "frontier float and string", "frontier float", "frontier string",
            "frontier bool", "frontier cell not in table", "frontier entry a string",
            "sim a string", "not JSON"])
    def test_malformed_document_is_a_validation_error(self, tmp_path, text):
        path = tmp_path / "malformed.json"
        path.write_text(text(power_json_dict(sample_table(), [(3, 3)])), encoding="utf-8")
        named = re.escape(str(path))
        with pytest.raises(ValidationError, match=f"power JSON file {named} is malformed"):
            read_power_json(path)

    @pytest.mark.parametrize("part, key, value", [("params", "censor", "no"),
                                                  ("row", "power", True)])
    def test_bool_where_a_number_or_flag_belongs_is_a_validation_error(self, tmp_path, part,
                                                                         key, value):
        # the file used to read as a censored table, and as a power of 1%
        doc = power_json_dict(sample_table(), [(3, 3)])
        {"params": doc["params"], "row": doc["rows"][0]}[part][key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        named = re.escape(str(path))
        with pytest.raises(ValidationError, match=f"{named} is malformed: {key} must"):
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
