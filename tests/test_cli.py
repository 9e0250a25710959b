from __future__ import annotations

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from xenopower.cli import _build_parser, main
from xenopower.datasets import pilot_path
from xenopower.io import read_power_csv, read_power_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST = ["--n", "3:4", "--m", "1:2", "--sim", "8", "--seed", "3", "--threads", "1"]


class TestDefaults:
    def test_shipping_defaults_snapshot(self):
        parser = _build_parser()
        a = parser.parse_args(["pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2"])
        assert (a.icc, a.sigma2) == (0.1, 1.0)
        assert (a.sim, a.alpha, a.target_power) == (500, 0.05, 0.8)
        assert (a.n, a.m) == ("3:10", "2:8")
        f = parser.parse_args(["pow-frailty", "--ctl-med", "2.4", "--tx-med", "7.2"])
        assert (f.nu, f.tau2) == (1.0, 0.1)
        assert f.censor_time is None


class TestHeaders:
    def test_frailty_header_shows_elicited_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "pow-frailty", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--nu", "1", "--tau2", "0.1", "--censor-time", "12", *FAST,
        )
        assert code == 0
        assert "0.2888113" in out
        assert "-1.098612" in out
        assert "censoring time: 12" in out

    def test_anova_header_shows_elicited_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", *FAST,
        )
        assert code == 0
        assert "0.1111111" in out
        assert "icc: 0.1" in out

    def test_pilot_header_names_source(self, capsys):
        path = str(pilot_path("uncensored"))
        code, out, _ = run_cli(capsys, "pow-anova-data", "--data", path, *FAST)
        assert code == 0
        assert "pilot data" in out
        assert "0.7299" in out

    def test_table_rows_ascend_n_then_m(self, capsys):
        code, out, _ = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", *FAST,
        )
        cells = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 5 and parts[0].isdigit():
                cells.append((int(parts[0]), int(parts[1])))
        assert cells == [(3, 1), (3, 2), (4, 1), (4, 2)]


class TestExitCodes:
    def test_missing_data_file_is_3(self, capsys):
        code, _, err = run_cli(capsys, "pow-anova-data", "--data", "missing.csv", *FAST)
        assert code == 3
        assert "missing.csv" in err

    def test_malformed_data_file_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("ID,Y,Tx\n1,zzz,0\n")
        code, _, err = run_cli(capsys, "pow-anova-data", "--data", str(bad), *FAST)
        assert code == 3

    def test_censored_pilot_on_anova_path_is_3(self, capsys):
        path = str(pilot_path("censored"))
        code, _, err = run_cli(capsys, "pow-anova-data", "--data", path, *FAST)
        assert code == 3
        assert "censored" in err

    def test_bad_range_flag_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", "--n", "3:x",
        )
        assert code == 2

    def test_bad_alpha_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--alpha", "0", *FAST[2:],
        )
        assert code == 2
        assert "alpha" in err

    def test_bad_icc_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", "--icc", "1.5", *FAST,
        )
        assert code == 2

    def test_unknown_flag_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", "--bogus"])
        assert exc.value.code == 2

    def test_degenerate_engine_run_is_4(self, capsys):
        code, _, err = run_cli(
            capsys, "pow-frailty", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--censor-time", "0.001", "--n", "3:3", "--m", "2:2",
            "--sim", "6", "--seed", "1", "--threads", "1",
        )
        assert code == 4
        assert "converged" in err

    def test_dead_worker_is_4(self, capsys, monkeypatch):
        def crash(job, progress=None):
            raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr("xenopower.cli.run_power_grid", crash)
        code, out, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", *FAST,
        )
        assert code == 4
        assert "error: a worker process died" in err
        assert "Traceback" not in err
        assert out == ""


class TestRangeSyntax:
    def test_comma_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--n", "3,5", "--m", "2", "--sim", "6", "--seed", "1", "--threads", "1",
        )
        assert code == 0
        assert " 5 " in "\n".join(line for line in out.splitlines() if line.strip().startswith("5"))

    def test_unordered_comma_list_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", "--n", "5,3",
        )
        assert code == 2
        assert "ascending" in err


class TestOutputs:
    def test_writes_csv_json_svg(self, capsys, tmp_path):
        csv_p = tmp_path / "out.csv"
        json_p = tmp_path / "out.json"
        svg_p = tmp_path / "out.svg"
        code, out, _ = run_cli(
            capsys, "pow-frailty", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--censor-time", "12", *FAST,
            "--out-csv", str(csv_p), "--out-json", str(json_p), "--plot", str(svg_p),
        )
        assert code == 0
        rows = read_power_csv(csv_p)
        assert [(r.n, r.m) for r in rows] == [(3, 1), (3, 2), (4, 1), (4, 2)]
        table, frontier = read_power_json(json_p)
        assert list(table.rows) == rows
        doc = json.loads(json_p.read_text())
        assert doc["params"]["model"] == "frailty"
        svg = svg_p.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_frontier_block_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "2.5",
            "--target-power", "0.999", *FAST,
        )
        assert code == 0
        assert "no design in the grid" in out


class TestThreadsEnv:
    def test_env_var_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("XENOPOWER_THREADS", "1")
        code, out, _ = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--n", "3:3", "--m", "1:1", "--sim", "4", "--seed", "1",
        )
        assert code == 0

    def test_bad_env_var_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("XENOPOWER_THREADS", "many")
        code, _, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--n", "3:3", "--m", "1:1", "--sim", "4", "--seed", "1",
        )
        assert code == 2
        assert "XENOPOWER_THREADS" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("XENOPOWER_THREADS", "many")  # would fail if consulted
        code, _, _ = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2",
            "--n", "3:3", "--m", "1:1", "--sim", "4", "--seed", "1", "--threads", "1",
        )
        assert code == 0
