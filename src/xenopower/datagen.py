"""Monte Carlo sample generation for the mixed crossed/nested design.

Every line contributes m animals to each of the two arms. Generation is a
pure function of (n, m, params, stream): the per-line effects are drawn
first, in line order, then the per-animal draws, so the content of a
dataset never depends on how replicates are scheduled across workers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._data import Design, SimulatedDataset, _build_design, _carrying
from .types import AnovaParams, FrailtyParams

__all__ = ["SimulatedDataset", "replicate_stream", "gen_anova", "gen_frailty"]


def replicate_stream(seed: int, n: int, m: int, r: int) -> np.random.Generator:
    """Derive the random stream for replicate r of cell (n, m).

    The (seed, n, m, r) tuple is hashed by SeedSequence into a key for the
    counter-based Philox generator, so any replicate can be regenerated in
    isolation and the stream never depends on execution order.
    """
    # the uint32 words SeedSequence([seed, n, m, r]) makes of the four ints:
    # little-endian, one zero word for 0. Coercing the ints one by one costs
    # SeedSequence more than hashing the words does.
    words = []
    for value in (int(seed), int(n), int(m), int(r)):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.Philox(ss))


# few: a cell's replicates run back to back, and a frailty fit adds k*N floats to its Design
@lru_cache(maxsize=8)
def _design_arrays(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Design]:
    """Labels, arm indicators, all-ones status and Design of cell (n, m), shared
    read-only by its datasets; the design codes its contiguous lines as labels - 1."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    line = np.repeat(np.arange(1, n + 1), 2 * m)
    tx = np.tile(np.concatenate([np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)]), n)
    status = np.ones(2 * n * m, dtype=np.int64)
    for array in (line, tx, status):
        array.flags.writeable = False
    return line, tx, status, _build_design(line, tx)


def gen_anova(n: int, m: int, params: AnovaParams, stream: np.random.Generator) -> SimulatedDataset:
    """Draw one uncensored dataset from the log-normal outcome model.

    y = exp(beta0 + tx*beta + line effect + residual); all records are
    observed events.
    """
    line, tx, status, design = _design_arrays(n, m)
    line_eff = stream.normal(0.0, math.sqrt(params.tau2), size=n)
    eps = stream.normal(0.0, math.sqrt(params.sigma2), size=2 * n * m)
    log_y = params.beta0 + tx * params.beta + line_eff[design.codes] + eps
    return _carrying(SimulatedDataset(line_index=line, tx=tx, y=np.exp(log_y), status=status),
                     design)


def gen_frailty(n: int, m: int, params: FrailtyParams, stream: np.random.Generator) -> SimulatedDataset:
    """Draw one (optionally right-censored) dataset from the Weibull
    frailty model.

    Latent times come from inverting the conditional survival function
    S(t) = exp(-lam * t**nu * exp(tx*beta + a)) at a uniform draw; with
    censoring on, y = min(T, ct) and status flags observed events.
    """
    line, tx, status, design = _design_arrays(n, m)
    frailty = stream.normal(0.0, math.sqrt(params.tau2), size=n)
    u = stream.uniform(size=2 * n * m)
    rate = params.lam * np.exp(tx * params.beta + frailty[design.codes])
    t_latent = (-np.log(u) / rate) ** (1.0 / params.nu)
    if params.censor:
        status = (t_latent <= params.ct).astype(np.int64)
        y = np.minimum(t_latent, params.ct)
    else:
        y = t_latent
    return _carrying(SimulatedDataset(line_index=line, tx=tx, y=y, status=status), design)
