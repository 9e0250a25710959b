"""Command-line interface.

Four subcommands cover the two outcome models crossed with the two ways
of obtaining parameters (assumed medians vs. a pilot-data fit):

    xenopower pow-anova         --ctl-med 2.4 --tx-med 7.2 [--icc --sigma2]
    xenopower pow-frailty       --ctl-med 2.4 --tx-med 7.2 [--nu --tau2 --censor-time]
    xenopower pow-anova-data    --data pilot.csv
    xenopower pow-frailty-data  --data pilot.csv [--censor-time]

Exit codes: 2 flag validation, 3 data-file errors (a pilot that cannot be
read or fitted, or an output that cannot be written), 4 engine failure or
interrupted. ``main`` alone maps errors to these codes, by where they arose.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence, Tuple

from .elicit import (
    elicit_anova_from_medians,
    elicit_anova_from_pilot,
    elicit_frailty_from_medians,
    elicit_frailty_from_pilot,
)
from .engine import EngineError, PowerJob, minimal_designs, run_power_grid
from .io import read_pilot_csv, write_power_csv, write_power_json
from .plot import render_power_plot
from .types import AnovaParams, DesignGrid, ValidationError

__all__ = ["main"]

_ENV_THREADS = "XENOPOWER_THREADS"

EXIT_FLAGS = 2
EXIT_DATA = 3
EXIT_ENGINE = 4


class _DataError(Exception):
    """A problem with a user-supplied file: the pilot read or fit, or an
    output write."""


def _parse_values(text: str, flag: str) -> Tuple[int, ...]:
    """Parse 'A:B' (inclusive range) or a comma list like '3,5,8'."""
    text = text.strip()
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError("range end below start")
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{flag} expects A:B or a comma list of integers: {exc}") from None


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", default="3:10", metavar="A:B",
                   help="range or comma list of line counts (default 3:10)")
    p.add_argument("--m", default="2:8", metavar="A:B",
                   help="range or comma list of animals per arm per line (default 2:8)")
    p.add_argument("--sim", type=int, default=500, help="Monte Carlo replicates per cell")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument("--seed", type=int, default=12345, help="master seed")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker count (default: ${_ENV_THREADS} or all CPUs this process may use)")
    p.add_argument("--target-power", type=float, default=0.8, dest="target_power",
                   help="power level for the minimal-design report")
    p.add_argument("--out-csv", metavar="PATH", help="write the power table as CSV")
    p.add_argument("--out-json", metavar="PATH", help="write table, params, frontier as JSON")
    p.add_argument("--plot", metavar="PATH.svg", help="write the power curves as SVG")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xenopower",
        description="Monte Carlo power analysis for crossed/nested xenograft designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("pow-anova", help="log-normal outcomes, parameters from medians")
    pa.add_argument("--ctl-med", type=float, required=True, dest="ctl_med")
    pa.add_argument("--tx-med", type=float, required=True, dest="tx_med")
    pa.add_argument("--icc", type=float, default=0.1)
    pa.add_argument("--sigma2", type=float, default=1.0)
    _add_shared_flags(pa)

    pf = sub.add_parser("pow-frailty", help="censored outcomes, parameters from medians")
    pf.add_argument("--ctl-med", type=float, required=True, dest="ctl_med")
    pf.add_argument("--tx-med", type=float, required=True, dest="tx_med")
    pf.add_argument("--nu", type=float, default=1.0)
    pf.add_argument("--tau2", type=float, default=0.1)
    pf.add_argument("--censor-time", type=float, default=None, dest="censor_time",
                    help="administrative censoring time (presence switches censoring on)")
    _add_shared_flags(pf)

    pad = sub.add_parser("pow-anova-data", help="log-normal outcomes, parameters from pilot data")
    pad.add_argument("--data", required=True, metavar="PATH")
    _add_shared_flags(pad)

    pfd = sub.add_parser("pow-frailty-data", help="censored outcomes, parameters from pilot data")
    pfd.add_argument("--data", required=True, metavar="PATH")
    pfd.add_argument("--censor-time", type=float, default=None, dest="censor_time",
                     help="administrative censoring time for the simulated experiments")
    _add_shared_flags(pfd)

    return parser


def _resolve_workers(args) -> object:
    if args.threads is not None:
        return args.threads
    env = os.environ.get(_ENV_THREADS, "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"${_ENV_THREADS} must be an integer, got {env!r}") from None
    return "auto"


def _print_header(out, model, sim, alpha, seed, source: Optional[str]) -> None:
    if isinstance(model, AnovaParams):
        out.write("model: mixed ANOVA (log-normal outcome)\n")
        names = [("beta0 (intercept, log scale)", model.beta0),
                 ("beta (treatment effect, log scale)", model.beta),
                 ("tau2 (line variance)", model.tau2),
                 ("sigma2 (residual variance)", model.sigma2),
                 ("icc", model.icc)]
    else:
        out.write("model: Weibull frailty (time-to-event outcome)\n")
        names = [("lambda (Weibull scale)", model.lam),
                 ("nu (Weibull shape)", model.nu),
                 ("beta (log hazard ratio)", model.beta),
                 ("tau2 (frailty variance)", model.tau2)]
        if model.censor:
            names.append(("censoring time", model.ct))
    if source:
        out.write(f"parameters estimated from pilot data: {source}\n")
    for label, value in names:
        out.write(f"  {label}: {value:.7g}\n")
    out.write(f"alpha: {alpha:.7g}   sim: {sim}   seed: {seed}\n\n")


def _print_table(out, table) -> None:
    with_cens = table.has_censoring
    head = f"{'n':>4} {'m':>4} {'N':>5} {'power%':>8} {'conv%':>7}"
    if with_cens:
        head += f" {'cens%':>7}"
    out.write(head + "\n")
    for r in table.rows:
        line = f"{r.n:>4} {r.m:>4} {r.total_animals:>5} {r.power:>8.1f} {r.convergence:>7.1f}"
        if with_cens:
            line += f" {r.censoring:>7.1f}"
        out.write(line + "\n")


def _print_frontier(out, frontier, target_power: float) -> None:
    pct = 100.0 * target_power
    if not frontier:
        out.write(f"\nno design in the grid reaches {pct:.0f}% power; "
                  "extend the n or m range\n")
        return
    out.write(f"\nminimal designs reaching {pct:.0f}% power:\n")
    for n, m in frontier:
        out.write(f"  n={n}, m={m} (N={2 * n * m})\n")


def _progress_printer():
    if not sys.stderr.isatty():
        return None

    def cb(done: int, total: int) -> None:
        sys.stderr.write(f"\r{done}/{total} cells")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return cb


def _fit_pilot(command: str, path: str):
    """Read the pilot file and fit the command's model to it. Whatever goes
    wrong here, from a missing file to a pilot the fitter rejects or cannot
    fit, is a problem with that file."""
    try:
        pilot = read_pilot_csv(path)
        if command == "pow-anova-data":
            return elicit_anova_from_pilot(pilot)
        return elicit_frailty_from_pilot(pilot)
    except OSError as exc:
        raise _DataError(f"cannot read data file {path!r}: {exc}") from exc
    except Exception as exc:
        raise _DataError(f"bad data file {path!r}: {exc}") from exc


def _write_outputs(args, table, frontier) -> None:
    try:
        if args.out_csv:
            write_power_csv(table, args.out_csv)
        if args.out_json:
            write_power_json(table, frontier, args.out_json)
        if args.plot:
            svg = render_power_plot(table, args.target_power, (0.0, 1.0))
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(svg)
    except OSError as exc:
        raise _DataError(f"could not write output file: {exc}") from exc


def _run(args) -> None:
    """Validate the flags, obtain the model, run the grid, and report."""
    grid = DesignGrid(
        n_values=_parse_values(args.n, "--n"),
        m_values=_parse_values(args.m, "--m"),
        sim=args.sim,
        alpha=args.alpha,
        seed=args.seed,
    )
    workers = _resolve_workers(args)
    source = getattr(args, "data", None)
    if args.command == "pow-anova":
        model = elicit_anova_from_medians(args.ctl_med, args.tx_med, args.icc, args.sigma2)
    elif args.command == "pow-frailty":
        model = elicit_frailty_from_medians(args.ctl_med, args.tx_med, args.nu, args.tau2)
    else:
        model = _fit_pilot(args.command, source)
    # the censoring plan is the user's, not the pilot's; FrailtyParams checks ct
    if getattr(args, "censor_time", None) is not None:
        model = dataclasses.replace(model, censor=True, ct=args.censor_time)
    job = PowerJob(grid=grid, model=model, target_power=args.target_power,
                   worker_count=workers)
    table = run_power_grid(job, progress=_progress_printer())
    frontier = minimal_designs(table, args.target_power)

    _print_header(sys.stdout, model, grid.sim, grid.alpha, grid.seed, source)
    _print_table(sys.stdout, table)
    _print_frontier(sys.stdout, frontier, args.target_power)
    _write_outputs(args, table, frontier)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run(args)
        return 0
    except ValidationError as exc:
        code, message = EXIT_FLAGS, str(exc)
    except _DataError as exc:
        code, message = EXIT_DATA, str(exc)
    except EngineError as exc:
        code, message = EXIT_ENGINE, str(exc)
    except BrokenProcessPool:
        code, message = EXIT_ENGINE, ("a worker process died (for example, killed for lack "
                                      "of memory); rerun with fewer --threads")
    except KeyboardInterrupt:
        code, message = EXIT_ENGINE, "interrupted"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
