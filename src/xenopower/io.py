"""File ingestion and emission: pilot CSVs, power-table CSV/JSON.

Numeric fields are written with full round-trip precision (shortest repr);
display rounding is left to the CLI layer.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from .types import (
    AnovaParams,
    FrailtyParams,
    PilotDataset,
    PilotRecord,
    PowerRow,
    PowerTable,
    ValidationError,
)

__all__ = [
    "read_pilot_csv",
    "power_csv_text",
    "write_power_csv",
    "read_power_csv",
    "power_json_dict",
    "write_power_json",
    "read_power_json",
]


def read_pilot_csv(path) -> PilotDataset:
    """Parse a pilot-data CSV with columns ID, Y, Tx and optionally status
    (header names matched case-insensitively)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("no data rows") from None
        cols = {name.strip().lower(): k for k, name in enumerate(header)}
        for required in ("id", "y", "tx"):
            if required not in cols:
                raise ValidationError(f"missing required column {required!r} in header")
        status_col = cols.get("status")

        records: List[PilotRecord] = []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rid = row[cols["id"]].strip()
                y = float(row[cols["y"]])
                tx = _parse_binary(row[cols["tx"]])
                status = _parse_binary(row[status_col]) if status_col is not None else None
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"could not parse row {rownum}: {exc}") from None
            records.append(PilotRecord(id=rid, y=y, tx=tx, status=status))
    if not records:
        raise ValidationError("no data rows")
    return PilotDataset(rows=tuple(records))


def _parse_binary(text: str) -> int:
    value = float(text)
    if value not in (0.0, 1.0):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return int(value)


def power_csv_text(table: PowerTable) -> str:
    """Render a power table as CSV text with full-precision numbers."""
    with_cens = table.has_censoring
    lines = ["n,m,N,power_pct,convergence_pct" + (",censoring_pct" if with_cens else "")]
    for r in table.rows:
        cells = [str(r.n), str(r.m), str(r.total_animals), repr(r.power), repr(r.convergence)]
        if with_cens:
            cells.append(repr(r.censoring))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_power_csv(table: PowerTable, path) -> None:
    Path(path).write_text(power_csv_text(table), encoding="utf-8")


def read_power_csv(path) -> List[PowerRow]:
    """Read rows written by write_power_csv back at full precision."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(
                PowerRow(
                    n=int(rec["n"]),
                    m=int(rec["m"]),
                    total_animals=int(rec["N"]),
                    power=float(rec["power_pct"]),
                    convergence=float(rec["convergence_pct"]),
                    censoring=float(rec["censoring_pct"]) if "censoring_pct" in rec else None,
                )
            )
    return rows


def _params_dict(table: PowerTable) -> Dict[str, object]:
    p = table.params
    if isinstance(p, AnovaParams):
        d: Dict[str, object] = {
            "model": "anova",
            "beta0": p.beta0,
            "beta": p.beta,
            "tau2": p.tau2,
            "sigma2": p.sigma2,
        }
    else:
        d = {
            "model": "frailty",
            "lambda": p.lam,
            "nu": p.nu,
            "beta": p.beta,
            "tau2": p.tau2,
            "censor": p.censor,
            "ct": p.ct,
        }
    d["sim"] = table.sim
    d["alpha"] = table.alpha
    return d


def power_json_dict(table: PowerTable, frontier: Sequence[Tuple[int, int]]) -> Dict[str, object]:
    return {
        "params": _params_dict(table),
        "rows": [
            {
                "n": r.n,
                "m": r.m,
                "N": r.total_animals,
                "power": r.power,
                "convergence": r.convergence,
                "censoring": r.censoring,
            }
            for r in table.rows
        ],
        "frontier": [[n, m] for n, m in frontier],
        "seed": table.seed,
    }


def write_power_json(table: PowerTable, frontier: Sequence[Tuple[int, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(power_json_dict(table, frontier), fh, indent=2)
        fh.write("\n")


def read_power_json(path) -> Tuple[PowerTable, List[Tuple[int, int]]]:
    """Rebuild (PowerTable, frontier) from a JSON file written by
    write_power_json."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    pd = doc["params"]
    if pd["model"] == "anova":
        params: Union[AnovaParams, FrailtyParams] = AnovaParams(
            beta0=pd["beta0"], beta=pd["beta"], tau2=pd["tau2"], sigma2=pd["sigma2"]
        )
    else:
        params = FrailtyParams(
            lam=pd["lambda"],
            nu=pd["nu"],
            beta=pd["beta"],
            tau2=pd["tau2"],
            censor=pd["censor"],
            ct=pd["ct"],
        )
    rows = tuple(
        PowerRow(
            n=r["n"],
            m=r["m"],
            total_animals=r["N"],
            power=r["power"],
            convergence=r["convergence"],
            censoring=r["censoring"],
        )
        for r in doc["rows"]
    )
    table = PowerTable(
        rows=rows,
        model=pd["model"],
        params=params,
        sim=pd["sim"],
        alpha=pd["alpha"],
        seed=doc["seed"],
    )
    frontier = [(int(n), int(m)) for n, m in doc["frontier"]]
    return table, frontier
