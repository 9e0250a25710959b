"""Monte Carlo sample generation for the mixed crossed/nested design.

Every line contributes m animals to each of the two arms. Generation is a
pure function of (n, m, params, stream): the per-line effects are drawn
first, in line order, then the per-animal draws, so the content of a
dataset never depends on how replicates are scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .types import AnovaParams, FrailtyParams

__all__ = ["SimulatedDataset", "replicate_stream", "gen_anova", "gen_frailty"]


@dataclass(frozen=True)
class SimulatedDataset:
    """One simulated experiment, stored as flat per-animal arrays.

    Any line labels are accepted (generated data use 1..n); the fitters
    number lines by first appearance. tx must be 0/1, checked at fit time.
    status is 1 for an observed event and 0 for an administratively
    censored record (whose y equals the censoring time exactly).
    """

    line_index: np.ndarray
    tx: np.ndarray
    y: np.ndarray
    status: np.ndarray

    @property
    def censoring_fraction(self) -> float:
        return float(1.0 - self.status.mean())


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


@lru_cache(maxsize=128)
def _design_arrays(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line labels, arm indicators, 0-based line codes and the all-ones
    status of uncensored data for cell (n, m), shared read-only by every
    dataset drawn for that cell."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    line = np.repeat(np.arange(1, n + 1), 2 * m)
    tx = np.tile(np.concatenate([np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)]), n)
    codes = line - 1
    status = np.ones(2 * n * m, dtype=np.int64)
    for array in (line, tx, codes, status):
        array.flags.writeable = False
    return line, tx, codes, status


def gen_anova(n: int, m: int, params: AnovaParams, stream: np.random.Generator) -> SimulatedDataset:
    """Draw one uncensored dataset from the log-normal outcome model.

    y = exp(beta0 + tx*beta + line effect + residual); all records are
    observed events.
    """
    line, tx, codes, status = _design_arrays(n, m)
    line_eff = stream.normal(0.0, math.sqrt(params.tau2), size=n)
    eps = stream.normal(0.0, math.sqrt(params.sigma2), size=2 * n * m)
    log_y = params.beta0 + tx * params.beta + line_eff[codes] + eps
    return SimulatedDataset(line_index=line, tx=tx, y=np.exp(log_y), status=status)


def gen_frailty(n: int, m: int, params: FrailtyParams, stream: np.random.Generator) -> SimulatedDataset:
    """Draw one (optionally right-censored) dataset from the Weibull
    frailty model.

    Latent times come from inverting the conditional survival function
    S(t) = exp(-lam * t**nu * exp(tx*beta + a)) at a uniform draw; with
    censoring on, y = min(T, ct) and status flags observed events.
    """
    line, tx, codes, status = _design_arrays(n, m)
    frailty = stream.normal(0.0, math.sqrt(params.tau2), size=n)
    u = stream.uniform(size=2 * n * m)
    rate = params.lam * np.exp(tx * params.beta + frailty[codes])
    t_latent = (-np.log(u) / rate) ** (1.0 / params.nu)
    if params.censor:
        status = (t_latent <= params.ct).astype(np.int64)
        y = np.minimum(t_latent, params.ct)
    else:
        y = t_latent
    return SimulatedDataset(line_index=line, tx=tx, y=y, status=status)
