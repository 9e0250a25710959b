from __future__ import annotations

import json
import warnings
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
MEDIANS = ["pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2"]
PILOT = ["pow-anova-data", "--data", str(pilot_path("uncensored"))]


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

    def test_duplicate_pilot_column_is_3(self, capsys, tmp_path):
        # a second Y column, differing only in case, is not silently read
        lines = pilot_path("uncensored").read_text().splitlines()
        y = lines[0].split(",").index("Y")
        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join(f"{line},{line.split(',')[y]}" if k else f"{line},y"
                                 for k, line in enumerate(lines)) + "\n")
        code, out, err = run_cli(capsys, "pow-anova-data", "--data", str(dup), *FAST)
        assert code == 3
        assert "duplicate column 'y'" in err
        assert out == ""

    def test_unfittable_pilot_is_3(self, capsys, tmp_path):
        # the pilot reads cleanly, but two rows in two lines leave no residual
        # degree of freedom
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("ID,Y,Tx\nA,1.0,0\nB,2.0,1\n")
        code, out, err = run_cli(capsys, "pow-anova-data", "--data", str(tiny), *FAST)
        assert code == 3
        assert "more observations than lines + 1, got 2 observations in 2 lines" in err
        assert out == ""

    def test_pilot_without_a_residual_degree_of_freedom_is_3(self, capsys, tmp_path):
        # three rows in two lines leave N - lines - 1 = 0 for the t reference
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("ID,Y,Tx\nA,1.0,0\nA,2.0,1\nB,3.0,0\n")
        code, out, err = run_cli(capsys, "pow-anova-data", "--data", str(tiny), *FAST)
        assert code == 3
        assert "more observations than lines + 1" in err
        assert out == ""

    def test_pilot_the_fit_cannot_converge_on_is_3(self, capsys, tmp_path):
        # a balanced pilot with every outcome equal is an exact fit, sigma2 = 0;
        # the closed form runs no search, so the message names the fit
        flat = tmp_path / "flat.csv"
        flat.write_text("ID,Y,Tx\n" + "".join(f"{line},2.0,{tx}\n" for line in "ABC"
                                              for tx in (0, 1, 0, 1)))
        code, out, err = run_cli(capsys, "pow-anova-data", "--data", str(flat), *FAST)
        assert code == 3
        assert "REML fit did not converge on the pilot data" in err
        assert "search" not in err
        assert out == ""

    @pytest.mark.parametrize("status, message", [
        # equal outcomes put the no-frailty profile's root in log nu outside the box
        (1, "frailty fit did not converge on the pilot data"),
        (0, "pilot data contains no observed events"),
    ], ids=["equal outcomes", "all censored"])
    def test_censored_pilot_the_frailty_fit_cannot_use_is_3(self, capsys, tmp_path, status,
                                                            message):
        flat = tmp_path / "flat.csv"
        flat.write_text("ID,Y,Tx,status\n" + "".join(f"{line},2.0,{tx},{status}\n"
                                                     for line in "ABC" for tx in (0, 1, 0, 1)))
        code, out, err = run_cli(capsys, "pow-frailty-data", "--data", str(flat), *FAST)
        assert code == 3
        assert message in err
        assert out == ""

    def test_unwritable_output_is_3(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent" / "x.csv"
        code, _, err = run_cli(capsys, *MEDIANS, *FAST, "--out-csv", str(missing))
        assert code == 3
        assert "could not write output file" in err

    def test_infinite_pilot_outcome_is_3(self, capsys, tmp_path):
        # rejected as the pilot is read, before any fit warns about it
        lines = pilot_path("uncensored").read_text().splitlines()
        first = lines[1].split(",")
        first[lines[0].split(",").index("Y")] = "inf"
        lines[1] = ",".join(first)
        data = tmp_path / "inf.csv"
        data.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "pow-anova-data", "--data", str(data), *FAST)
        assert code == 3
        assert "Y must be positive and finite at row 1" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert out == ""

    def test_bad_censor_time_on_pilot_path_is_2(self, capsys):
        path = str(pilot_path("censored"))
        code, out, err = run_cli(
            capsys, "pow-frailty-data", "--data", path, "--censor-time", "-1", *FAST,
        )
        assert code == 2
        assert "ct must be a positive finite censoring time" in err
        assert out == ""

    def test_pool_os_error_is_not_an_output_error(self, monkeypatch):
        # only writing an output turns an OSError into exit code 3
        def crash(job, progress=None):
            raise OSError("cannot start a worker")

        monkeypatch.setattr("xenopower.cli.run_power_grid", crash)
        with pytest.raises(OSError, match="cannot start a worker"):
            main([*MEDIANS, *FAST])

    def test_bad_range_flag_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", "--n", "3:x",
        )
        assert code == 2

    def test_descending_range_is_2(self, capsys):
        code, _, err = run_cli(capsys, *MEDIANS, "--n", "4:3")
        assert code == 2
        assert "--n expects A:B or a comma list of integers: range end below start" in err

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

    @pytest.mark.parametrize("argv", [
        ["pow-frailty", "--ctl-med", "2.4", "--tx-med", "7.2", "--nu", "1000"],
        ["pow-frailty", "--ctl-med", "1e-5", "--tx-med", "7.2", "--nu", "100"],
        ["pow-frailty", "--ctl-med", "2.4", "--tx-med", "7.2", "--tau2", "inf"],
        ["pow-frailty", "--ctl-med", "inf", "--tx-med", "7.2"],
        ["pow-anova", "--ctl-med", "2.4", "--tx-med", "7.2", "--sigma2", "inf"],
        ["pow-anova", "--ctl-med", "inf", "--tx-med", "7.2"],
    ], ids=["nu_1000", "tiny_median_nu_100", "tau2_inf", "frailty_median_inf",
            "sigma2_inf", "anova_median_inf"])
    def test_extreme_or_non_finite_parameter_is_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, *FAST)
        assert code == 2
        assert err.startswith("error: ")

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

    @pytest.mark.parametrize("target, argv, exc, message", [
        pytest.param("run_power_grid", MEDIANS,
                     BrokenProcessPool("a child process terminated abruptly"),
                     "error: a worker process died", id="broken_pool"),
        pytest.param("run_power_grid", MEDIANS, KeyboardInterrupt(), "error: interrupted",
                     id="interrupt"),
        pytest.param("read_pilot_csv", PILOT, KeyboardInterrupt(), "error: interrupted",
                     id="interrupt_during_pilot_read"),
    ])
    def test_dead_worker_is_4(self, capsys, monkeypatch, target, argv, exc, message):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"xenopower.cli.{target}", crash)
        code, out, err = run_cli(capsys, *argv, *FAST)
        assert code == 4
        assert message in err
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

    def test_frontier_designs_listed(self, capsys):
        code, out, _ = run_cli(capsys, *MEDIANS, "--n", "3:5", "--m", "2:4", "--sim", "40",
                               "--threads", "1")
        assert code == 0
        assert out.endswith("\nminimal designs reaching 80% power:\n"
                            "  n=4, m=4 (N=32)\n  n=5, m=3 (N=30)\n")


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
