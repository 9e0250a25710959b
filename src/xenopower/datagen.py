"""Monte Carlo sample generation for the mixed crossed/nested design.

Every line contributes m animals to each of the two arms. Generation is a
pure function of (n, m, params, stream): the per-line effects are drawn
first, in line order, then the per-animal draws, so the content of a
dataset never depends on how replicates are scheduled across workers.

Each replicate's stream is a Philox generator keyed by numpy's SeedSequence
hash of (seed, n, m, r). The hash runs over 512 replicates at a time as
uint32 array arithmetic and gives the keys ``SeedSequence([seed, n, m, r])``
gives, which stays the test oracle.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from ._data import Design, SimulatedDataset, _build_design, _carrying
from .types import AnovaParams, FrailtyParams

__all__ = ["SimulatedDataset", "replicate_stream", "gen_anova", "gen_frailty"]

# numpy's SeedSequence constants (a 4-word pool, hashmix/mix, generate_state)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# replicates per block of keys: one ANOVA chunk. It divides 2**32, so the
# replicates of a block differ only in the lowest word of r.
_BLOCK = 512
# Philox's default counter, as the array that Philox turns an int into
# (about 1 us cheaper to pass than the int 0)
_COUNTER = np.zeros(4, dtype=np.uint64)
_COUNTER.flags.writeable = False


def replicate_stream(seed: int, n: int, m: int, r: int) -> np.random.Generator:
    """Derive the random stream for replicate r of cell (n, m).

    The (seed, n, m, r) tuple is hashed by numpy's SeedSequence algorithm
    into a key for the counter-based Philox generator, so any replicate can
    be regenerated in isolation and the stream never depends on execution
    order. The draws are those of ``Philox(SeedSequence([seed, n, m, r]))``;
    the keys are hashed for 512 replicates at a time, and the generator's
    ``seed_seq`` holds its key and spawns as that SeedSequence does; like
    it, a coordinate that is not an integer raises TypeError.
    """
    entropy = [operator.index(seed), operator.index(n), operator.index(m), operator.index(r)]
    if min(entropy) < 0:
        raise ValueError("expected non-negative integer")
    block, i = divmod(entropy[3], _BLOCK)
    key = _block_keys(entropy[0], entropy[1], entropy[2], block)[i]
    return np.random.Generator(np.random.Philox(_Keyed(key, entropy), counter=_COUNTER))


class _Keyed(ISpawnableSeedSequence):
    """SeedSequence(entropy) with its Philox key already hashed. It builds
    the SeedSequence only to spawn or for another state request, and keeps
    it, so its children counter carries over between spawns."""

    def __init__(self, key: np.ndarray, entropy: list):
        self.key = key
        self.entropy = entropy
        self._seq = None

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for 2 uint64 words, by this very dtype object
        if n_words == 2 and dtype is np.uint64:
            return self.key
        return self._sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._sequence().spawn(n_children)

    def _sequence(self) -> np.random.SeedSequence:
        if self._seq is None:
            self._seq = np.random.SeedSequence(self.entropy)
        return self._seq


def _words(value: int) -> list:
    """The little-endian uint32 words SeedSequence makes of an int; one zero word for 0."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a word (an int or a uint32 array) and the
    next hash constant; generate_state hashes each pool word likewise with
    its own constants."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ (value >> 16), const


def _mix(x, y):
    """SeedSequence's mix of two words, each an int or a uint32 array."""
    result = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return result ^ (result >> 16)


@lru_cache(maxsize=8)
def _block_keys(seed: int, n: int, m: int, block: int) -> np.ndarray:
    """The (512, 2) uint64 Philox keys SeedSequence([seed, n, m, r]) hashes
    for r = 512*block .. 512*block + 511, read-only.

    Words before r's lowest word are mixed as Python ints masked to 32
    bits; from that word on the pool is a uint32 array over the block, on
    which numpy wraps without overflow warnings.
    """
    # four ints make at least the pool's four words
    entropy = _words(seed) + _words(n) + _words(m)
    low = len(entropy)
    entropy += _words(_BLOCK * block)
    entropy[low] = entropy[low] + np.arange(_BLOCK, dtype=np.uint32)
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    # generate_state(2, uint64): the four pool words, paired little-endian
    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        state.append(word.astype(np.uint64))
    shift = np.uint64(32)
    keys = np.stack([state[0] | state[1] << shift, state[2] | state[3] << shift], axis=1)
    keys.flags.writeable = False
    return keys


# few: a cell's replicates run back to back
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
    y = _anova_y(stream.standard_normal(n + 2 * n * m), design, params)
    return _carrying(SimulatedDataset(line_index=line, tx=tx, y=y, status=status), design)


def _anova_y(z: np.ndarray, design: Design, params: AnovaParams) -> np.ndarray:
    """Outcomes of the log-normal model from standard normal draws z, one
    dataset per row of (..., k + N): the k line effects, then the N
    animals' residuals. The design's lines must be contiguous blocks, as
    _design_arrays lays them out. Scaling a draw by its standard deviation
    is what ``stream.normal(0, sd)`` does, so a row's outcomes are those of
    drawing the line effects, then the residuals, with ``normal``, bit for
    bit.
    """
    k = design.k
    # a line's effect broadcasts over its block of animals
    log_y = ((params.beta0 + design.tx * params.beta).reshape(k, -1)
             + math.sqrt(params.tau2) * z[..., :k, None])
    log_y += (math.sqrt(params.sigma2) * z[..., k:]).reshape(log_y.shape)
    return np.exp(log_y, out=log_y).reshape(z.shape[:-1] + (-1,))


def gen_frailty(n: int, m: int, params: FrailtyParams, stream: np.random.Generator) -> SimulatedDataset:
    """Draw one (optionally right-censored) dataset from the Weibull
    frailty model.

    Latent times come from inverting the conditional survival function
    S(t) = exp(-lam * t**nu * exp(tx*beta + a)) at a uniform draw; with
    censoring on, y = min(T, ct) and status flags observed events.
    """
    line, tx, status, design = _design_arrays(n, m)
    y, events = _frailty_y(_frailty_draws(stream, np.empty(n + 2 * n * m), n), design, params)
    return _carrying(SimulatedDataset(line_index=line, tx=tx, y=y,
                                      status=status if events is None else events), design)


def _frailty_draws(stream: np.random.Generator, out: np.ndarray, n: int) -> np.ndarray:
    """out, filled with gen_frailty's draws in its order: n standard
    normal line effects, then one uniform per animal."""
    stream.standard_normal(out=out[:n])
    stream.random(out=out[n:])
    return out


def _frailty_y(z: np.ndarray, design: Design, params: FrailtyParams):
    """Outcomes and event flags of the Weibull frailty model from draws z,
    one dataset per row of (..., k + N): k standard normal line effects,
    then N uniforms. The design's lines must be contiguous blocks, as
    _design_arrays lays them out. Scaling a draw by its standard deviation
    is what ``stream.normal(0, sd)`` does, and a uniform is what
    ``stream.uniform()`` draws, so a row's outcomes are those of drawing
    with ``normal`` and ``uniform``, bit for bit. Returns (y, status):
    status is 0/1 int64, or None without censoring, where every record is
    an event.
    """
    k = design.k
    # a line's effect broadcasts over its block of animals
    log_rate = ((design.tx * params.beta).reshape(k, -1)
                + math.sqrt(params.tau2) * z[..., :k, None])
    rate = params.lam * np.exp(log_rate)
    t_latent = (-np.log(z[..., k:].reshape(rate.shape)) / rate) ** (1.0 / params.nu)
    t_latent = t_latent.reshape(z.shape[:-1] + (-1,))
    if not params.censor:
        return t_latent, None
    return np.minimum(t_latent, params.ct), (t_latent <= params.ct).astype(np.int64)
