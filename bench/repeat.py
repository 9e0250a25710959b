#!/usr/bin/env python3
"""Run the benchmark on every workload, once per seed, and summarise each
metric's spread.

    python3 bench/repeat.py --seeds 1          # one run of each workload
    python3 bench/repeat.py --workload anova-grid --seeds 1-10 --out runs.json

For each workload (all of them unless --workload is given) and seed it runs
run.py with the run length from BENCHMARK.json and prints every metric with
its unit. Over two or more seeds it prints each metric's median and spread:
the distance between the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) as a share of the median. --out records the summaries and each
run's result digest, so a later commit can show whether it changed results;
an existing file is extended. Exits 1 if any run fails, including a failed
correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    stamp = next(json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp "))
    return stamp, json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="A-B or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out and args.out.is_file() else {}
    kind = "per_layer" if args.trace else "end_to_end"

    status = 0
    for workload in args.workload or list(wl.WORKLOADS):
        runs = []
        for seed in parse_seeds(args.seeds):
            try:
                stamp, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(exc, file=sys.stderr)
                status = 1
                continue
            runs.append({"seed": seed, "stamp": stamp, "result": result})
            doc.setdefault("csv_sha256", {}).setdefault(workload, {})[str(seed)] = stamp["csv_sha256"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()))
        if len(runs) < 2:
            continue
        names = runs[0]["result"]["metrics"]
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        doc.setdefault(kind, {})[workload] = {
            "stamp": {k: v for k, v in runs[0]["stamp"].items() if k not in ("seed", "grid_seeds",
                                                                             "csv_sha256")},
            "seeds": [r["seed"] for r in runs],
            "metrics": summary,
        }
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  spread/bound {s['spread'] / bound:.2f}"
            print(f"{workload:14s} {name:34s} median {s['median']:.6g}  spread {s['spread']:.4f}{flag}")
        if args.out:
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
