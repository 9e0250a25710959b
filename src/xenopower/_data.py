"""The simulated-dataset container and the design record the fitters read."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .types import PilotDataset


@dataclass(frozen=True)
class Design:
    """What the fitters need of a dataset's line labels and tx alone: built
    once per simulated cell and carried by its datasets, else at each fit.

    ``codes`` number the lines 0..k-1 in order of first appearance, so
    ``k`` (the length of ``sizes``) is the number of distinct labels.
    ``tx`` is the treatment column as float64, checked to be 0/1, and is
    the treated row of ``arm``, the (2, N) control and treated indicators.
    ``sx`` holds the per-line sums of tx. ``J`` is the common line size
    when every line has J animals with tx summing to J/2, else None.
    A record may have one line or one arm: as_arrays refuses such data.
    """

    codes: np.ndarray
    k: int
    sizes: np.ndarray
    tx: np.ndarray
    sx: np.ndarray
    Sx: float
    J: Optional[float]
    arm: np.ndarray

    @cached_property
    def member(self) -> np.ndarray:
        """The (k, N) line indicator matrix, built at first use; only frailty reads it."""
        member = (self.codes[None, :] == np.arange(self.k)[:, None]).astype(np.float64)
        member.flags.writeable = False
        return member


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
    for array in (codes, sizes, tx, sx, arm):
        array.flags.writeable = False
    return Design(codes=codes, k=k, sizes=sizes, tx=tx, sx=sx, Sx=float(tx.sum()), J=J, arm=arm)


@dataclass(frozen=True, eq=False)
class SimulatedDataset:
    """One simulated experiment, stored as flat per-animal arrays.

    Any line labels are accepted (generated data use 1..n); the fitters
    number lines by first appearance. tx and status must be 0/1, and the
    four arrays of equal length, checked at fit time.
    status is 1 for an observed event and 0 for an administratively
    censored record (whose y equals the censoring time exactly).
    """

    line_index: np.ndarray
    tx: np.ndarray
    y: np.ndarray
    status: np.ndarray
    # set only by the generators; not an init field, so replace() drops it
    _design: Optional[Design] = field(default=None, init=False, repr=False, compare=False)

    @property
    def censoring_fraction(self) -> float:
        return float(1.0 - self.status.mean())

    def __eq__(self, other):
        """Equal when the four arrays are equal in value; the carried Design is not compared."""
        if not isinstance(other, SimulatedDataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("line_index", "tx", "y", "status"))

    __hash__ = None  # the arrays are mutable


def _carrying(data: SimulatedDataset, design: Design) -> SimulatedDataset:
    """data, holding the Design of its own line_index and tx."""
    object.__setattr__(data, "_design", design)
    return data


def as_arrays(data) -> tuple[Design, np.ndarray, np.ndarray]:
    """Return (design, y, status) for a SimulatedDataset or a PilotDataset.

    A generated dataset brings its cell's design; any other container's is
    built here, numbering lines by first appearance and checking tx. A
    user-built SimulatedDataset must hold one entry per animal in each
    array, with status 0/1. ValueError refuses data that fail these checks
    and data neither model can fit: one line, one arm or an outcome that is
    not positive and finite.
    A SimulatedDataset's status comes back as stored (0/1 integers for
    generated data; the fitters' arithmetic promotes them), and its y is
    uncopied when already float64, so callers must not write to them.
    """
    if isinstance(data, SimulatedDataset):
        design, y, status = data._design, data.y.astype(np.float64, copy=False), data.status
        if design is None:
            shape = (len(data.line_index),)
            if any(np.shape(a) != shape for a in (data.line_index, data.tx, y, status)):
                raise ValueError("line_index, tx, y and status must hold one entry per animal")
            if not np.isin(status, (0, 1)).all():
                raise ValueError("status must be 0 or 1 for every animal")
            design = _build_design(data.line_index, data.tx)
    elif isinstance(data, PilotDataset):
        # an object array, since a fixed-width string array drops trailing NULs
        ids = np.array([r.id for r in data.rows], dtype=object)
        tx = np.array([r.tx for r in data.rows], dtype=np.float64)
        y = np.array([r.y for r in data.rows], dtype=np.float64)
        status = np.array(
            [1.0 if r.status is None else float(r.status) for r in data.rows], dtype=np.float64
        )
        design = _build_design(ids, tx)
    else:
        raise TypeError(f"expected SimulatedDataset or PilotDataset, got {type(data).__name__}")
    if design.k < 2:
        raise ValueError("fit requires at least 2 distinct lines")
    if not 0 < design.Sx < design.codes.size:
        raise ValueError("both treatment arms must be present")
    # nan fails the first comparison
    if not (0 < y.min() and y.max() < np.inf):
        raise ValueError("all outcomes must be positive and finite")
    return design, y, status
