from __future__ import annotations

import hashlib

import numpy as np
import pytest

from xenopower.datasets import pilot_censored, pilot_uncensored
from xenopower.types import PilotDataset, PilotRecord


@pytest.fixture(scope="session")
def pilot_lognormal() -> PilotDataset:
    """Bundled 18-animal uncensored pilot (3 lines, balanced arms)."""
    return pilot_uncensored()


@pytest.fixture(scope="session")
def pilot_survival() -> PilotDataset:
    """Bundled 18-animal censored pilot (3 lines, 3 censored records)."""
    return pilot_censored()


def dataset_to_pilot(ds) -> PilotDataset:
    """Repackage a SimulatedDataset as a PilotDataset with string ids."""
    rows = tuple(
        PilotRecord(id=str(int(line)), y=float(y), tx=int(tx), status=int(s))
        for line, y, tx, s in zip(ds.line_index, ds.y, ds.tx, ds.status)
    )
    return PilotDataset(rows=rows)


def arm_means_log(ds) -> float:
    """Difference in arm means of log y (treated minus control)."""
    logy = np.log(ds.y)
    return float(logy[ds.tx == 1].mean() - logy[ds.tx == 0].mean())


def arithmetic_fingerprint(pairs) -> str:
    """sha256 of what numpy's exp, log and BLAS dot products contribute to
    REML fits of the given (tx, y) arrays before scalar arithmetic takes
    over: y itself, log y and its sums with tx. A digest of fits frozen on
    one platform pins bit-identity only where this matches as well."""
    h = hashlib.sha256()
    for tx, y in pairs:
        logy = np.log(y)
        h.update(np.concatenate([y, logy, [logy.sum(), logy @ logy, tx @ logy, tx @ tx]]).tobytes())
    return h.hexdigest()
