"""Internal helpers for turning dataset containers into fit-ready arrays."""

from __future__ import annotations

import numpy as np

from .datagen import SimulatedDataset
from .types import PilotDataset


def as_arrays(data) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (line_codes, tx, y, status) with line codes 0..k-1.

    Accepts a SimulatedDataset or a PilotDataset; pilot line ids are coded
    in order of first appearance, simulated ones as line_index - min. A
    SimulatedDataset's tx and status come back as stored (0/1 integers for
    generated data; the fitters' arithmetic promotes them), and its y is
    uncopied when already float64, so callers must not write to them.
    """
    if isinstance(data, SimulatedDataset):
        codes = data.line_index.astype(np.int64, copy=False) - int(data.line_index.min())
        return codes, data.tx, data.y.astype(np.float64, copy=False), data.status
    if isinstance(data, PilotDataset):
        order = {lid: k for k, lid in enumerate(data.line_ids())}
        codes = np.array([order[r.id] for r in data.rows], dtype=np.int64)
        tx = np.array([r.tx for r in data.rows], dtype=np.float64)
        y = np.array([r.y for r in data.rows], dtype=np.float64)
        status = np.array(
            [1.0 if r.status is None else float(r.status) for r in data.rows], dtype=np.float64
        )
        return codes, tx, y, status
    raise TypeError(f"expected SimulatedDataset or PilotDataset, got {type(data).__name__}")
