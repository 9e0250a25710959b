"""Internal helpers for turning dataset containers into fit-ready arrays."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .datagen import SimulatedDataset
from .types import PilotDataset


@dataclass(frozen=True)
class Design:
    """What the fitters need of a dataset's line labels and treatment
    column alone, shared read-only by every dataset with the same ones.

    ``codes`` number the lines 0..k-1 in order of first appearance, so
    ``k`` (the length of ``sizes``) is the number of distinct labels.
    ``tx`` is the treatment column as float64, checked to be 0/1, and is
    the treated row of ``arm``, the (2, N) control and treated indicators.
    ``sx`` holds the per-line sums of tx. ``J`` is the common line size
    when every line has J animals with tx summing to J/2, else None.
    ``member`` is the (k, N) line indicator matrix.
    """

    codes: np.ndarray
    k: int
    sizes: np.ndarray
    tx: np.ndarray
    sx: np.ndarray
    Sx: float
    both_arms: bool
    J: Optional[float]
    member: np.ndarray
    arm: np.ndarray


def _build_design(labels: np.ndarray, tx: np.ndarray) -> Design:
    if not labels.size:
        raise ValueError("dataset is empty")
    arm = np.array((1.0 - tx, tx), dtype=np.float64)
    tx = arm[1]
    if not np.isin(tx, (0.0, 1.0)).all():
        raise ValueError("tx must be 0 or 1 for every animal")
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    k = first.size
    # each distinct label's code is the rank of its first index
    codes = np.argsort(np.argsort(first))[inverse]
    sizes = np.bincount(codes).astype(np.float64)
    sx = np.bincount(codes, weights=tx, minlength=k)
    sizes_list = sizes.tolist()
    J = sizes_list[0]
    if sizes_list.count(J) != k or sx.tolist().count(J / 2) != k:
        J = None
    member = (codes[None, :] == np.arange(k)[:, None]).astype(np.float64)
    for array in (codes, sizes, tx, sx, arm, member):
        array.flags.writeable = False
    return Design(codes=codes, k=k, sizes=sizes, tx=tx, sx=sx, Sx=float(tx.sum()),
                  both_arms=bool(tx.min() != tx.max()), J=J, member=member, arm=arm)


@lru_cache(maxsize=8)
def _cached_design(labels: bytes, labels_dtype: np.dtype, labels_shape: tuple,
                   tx: bytes, tx_dtype: np.dtype, tx_shape: tuple) -> Design:
    # rebuilt from the key alone, so a record depends on nothing but content
    return _build_design(np.frombuffer(labels, labels_dtype).reshape(labels_shape),
                         np.frombuffer(tx, tx_dtype).reshape(tx_shape))


def design_of(labels: np.ndarray, tx: np.ndarray) -> Design:
    """The Design of line labels and a treatment column, memoized by their
    bytes, dtypes and shapes: every replicate of a simulated design shares
    one record."""
    if labels.dtype.hasobject or tx.dtype.hasobject:
        # the bytes of an object array are pointers, not content
        return _build_design(labels, tx)
    return _cached_design(labels.tobytes(), labels.dtype, labels.shape,
                          tx.tobytes(), tx.dtype, tx.shape)


def as_arrays(data) -> tuple[Design, np.ndarray, np.ndarray]:
    """Return (design, y, status) for a SimulatedDataset or a PilotDataset.

    Either container's lines are numbered by first appearance, and its tx
    is checked and held by the design. A SimulatedDataset's status comes
    back as stored (0/1 integers for generated data; the fitters'
    arithmetic promotes them), and its y is uncopied when already float64,
    so callers must not write to them.
    """
    if isinstance(data, SimulatedDataset):
        return (design_of(data.line_index, data.tx),
                data.y.astype(np.float64, copy=False), data.status)
    if isinstance(data, PilotDataset):
        # an object array, since a fixed-width string array drops trailing NULs
        ids = np.array([r.id for r in data.rows], dtype=object)
        tx = np.array([r.tx for r in data.rows], dtype=np.float64)
        y = np.array([r.y for r in data.rows], dtype=np.float64)
        status = np.array(
            [1.0 if r.status is None else float(r.status) for r in data.rows], dtype=np.float64
        )
        return design_of(ids, tx), y, status
    raise TypeError(f"expected SimulatedDataset or PilotDataset, got {type(data).__name__}")
