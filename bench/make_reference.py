#!/usr/bin/env python3
"""Record the reference power tables that run.py checks results against.

    python3 bench/make_reference.py [--workload NAME ...]

For each workload, runs its grid once at a fixed seed with many replicates
per cell, at one worker per core, and writes the per-cell counts, the CSV's
sha256 and the frontier at the target power to reference.json. Rerun it only
when a change is meant to alter results, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import pipeline  # puts the checkout's src/ on sys.path
import workloads as wl
from run import counts
from xenopower import minimal_designs, run_power_grid
from xenopower.io import power_csv_text

REFERENCE_SEED = 20261017
REFERENCE_SIM = {"anova": 2000, "frailty": 1000}
PATH = Path(__file__).resolve().parent / "reference.json"


def reference_for(w: wl.Workload) -> dict:
    sim = REFERENCE_SIM[w.model]
    job = pipeline.build_job(w, REFERENCE_SEED, sim, os.cpu_count() or 1)
    table = run_power_grid(job)
    cells = [[n, m, rej, conv] for (n, m), (rej, conv) in counts(pipeline.table_rows(table), sim).items()]
    return {
        "seed": REFERENCE_SEED,
        "sim": sim,
        "cells": cells,
        "csv_sha256": hashlib.sha256(power_csv_text(table).encode()).hexdigest(),
        "frontier_at_0.8": minimal_designs(table, wl.TARGET_POWER),
        "stamp": pipeline.stamp(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    doc = json.loads(PATH.read_text()) if PATH.is_file() else {}
    for name in args.workload or sorted(wl.WORKLOADS):
        doc[name] = reference_for(wl.WORKLOADS[name])
        PATH.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: recorded {len(doc[name]['cells'])} cells", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
