"""File ingestion and emission: pilot CSVs, power-table CSV/JSON.

Numeric fields are written with full round-trip precision (shortest repr);
display rounding is left to the CLI layer.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .types import (
    AnovaParams,
    FrailtyParams,
    PilotDataset,
    PilotRecord,
    PowerRow,
    PowerTable,
    ValidationError,
    _is_integer,
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


# the pilot CSV's column names, lower-cased: three required, status optional
_PILOT_REQUIRED = ("id", "y", "tx")
_PILOT_COLUMNS = _PILOT_REQUIRED + ("status",)


def read_pilot_csv(path) -> PilotDataset:
    """Parse a pilot-data CSV with columns ID, Y, Tx and optionally status
    (header names matched case-insensitively, each at most once). A UTF-8
    byte-order mark, as spreadsheet programs write, is skipped."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("no data rows") from None
        cols: Dict[str, int] = {}
        for k, name in enumerate(header):
            key = name.strip().lower()
            if key in cols and key in _PILOT_COLUMNS:
                raise ValidationError(f"duplicate column {name.strip()!r} in header")
            cols[key] = k
        for required in _PILOT_REQUIRED:
            if required not in cols:
                raise ValidationError(f"missing required column {required!r} in header")
        status_col = cols.get("status")

        records: List[PilotRecord] = []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            # rows are numbered among the kept data rows, as PilotDataset's checks number them
            rownum = len(records) + 1
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


# the power-table CSV's columns as (header, PowerRow field, type); the
# last, censoring_pct, is written only for a table with censoring
_CSV_COLUMNS = (("n", "n", int), ("m", "m", int), ("N", "total_animals", int),
                ("power_pct", "power", float), ("convergence_pct", "convergence", float),
                ("censoring_pct", "censoring", float))


def _csv_columns(with_censoring: bool):
    return _CSV_COLUMNS if with_censoring else _CSV_COLUMNS[:-1]


def power_csv_text(table: PowerTable) -> str:
    """Render a power table as CSV text with full-precision numbers."""
    columns = _csv_columns(table.has_censoring)
    lines = [",".join(header for header, _, _ in columns)]
    for r in table.rows:
        lines.append(",".join(repr(kind(getattr(r, name))) for _, name, kind in columns))
    return "\n".join(lines) + "\n"


def write_power_csv(table: PowerTable, path) -> None:
    Path(path).write_text(power_csv_text(table), encoding="utf-8")


def read_power_csv(path) -> List[PowerRow]:
    """Read rows written by write_power_csv back at full precision. A file
    that is not such a table raises ValidationError naming it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            columns = _csv_columns("censoring_pct" in (reader.fieldnames or ()))
            return [PowerRow(**{name: kind(rec[header]) for header, name, kind in columns})
                    for rec in reader]
        except KeyError as exc:
            raise ValidationError(f"power CSV file {path} has no column {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"power CSV file {path} is malformed: {exc}") from None


# JSON keys that differ from the names of the dataclass fields they hold
_JSON_KEYS = {"lam": "lambda", "total_animals": "N"}
# the "model" tag of each parameter type
_MODELS = {"anova": AnovaParams, "frailty": FrailtyParams}


def _to_json(obj) -> Dict[str, object]:
    return {_JSON_KEYS.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}


def _from_json(cls, doc: Dict[str, object]):
    return cls(**{f.name: doc[_JSON_KEYS.get(f.name, f.name)] for f in fields(cls)})


def power_json_dict(table: PowerTable, frontier: Sequence[Tuple[int, int]]) -> Dict[str, object]:
    """The JSON document of a power table: ``params`` holds the model tag,
    the parameter type's fields (``lambda`` for lam), sim and alpha; each
    row holds PowerRow's fields (``N`` for total_animals)."""
    model = next(tag for tag, cls in _MODELS.items() if isinstance(table.params, cls))
    return {
        "params": {"model": model, **_to_json(table.params), "sim": table.sim,
                   "alpha": table.alpha},
        "rows": [_to_json(r) for r in table.rows],
        "frontier": [[n, m] for n, m in frontier],
        "seed": table.seed,
    }


def write_power_json(table: PowerTable, frontier: Sequence[Tuple[int, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(power_json_dict(table, frontier), fh, indent=2)
        fh.write("\n")


def read_power_json(path) -> Tuple[PowerTable, List[Tuple[int, int]]]:
    """Rebuild (PowerTable, frontier) from a JSON file written by
    write_power_json. A file that is not such a document raises
    ValidationError naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        pd = doc["params"]
        if pd["model"] not in _MODELS:
            raise ValidationError(f"unknown model {pd['model']!r}")
        table = PowerTable(
            rows=tuple(_from_json(PowerRow, r) for r in doc["rows"]),
            params=_from_json(_MODELS[pd["model"]], pd),
            sim=pd["sim"],
            alpha=pd["alpha"],
            seed=doc["seed"],
        )
        frontier = [tuple(cell) for cell in doc["frontier"]]
        cells = {(row.n, row.m) for row in table.rows}
        for cell in frontier:
            if len(cell) != 2 or not all(map(_is_integer, cell)) or cell not in cells:
                raise ValidationError(f"frontier entry {list(cell)!r} is not a cell of the table")
    except KeyError as exc:
        raise ValidationError(f"power JSON file {path} has no key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"power JSON file {path} is malformed: {exc}") from None
    return table, frontier
