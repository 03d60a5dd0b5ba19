"""Counter-based deterministic random numbers (SplitMix64).

Shot sampling needs bit-reproducible draws that do not depend on execution
order, so instead of a stateful generator each draw is a pure function of
(seed, stream, counter):

    stream_key(seed, stream) = mix64(mix64(seed) + stream * GAMMA)
    draw(seed, stream, k)    = mix64(stream_key + (k + 1) * GAMMA)

where mix64 is the SplitMix64 finalizer (Steele, Lea & Flood's SplitMix,
as popularized by Vigna's splitmix64.c) and GAMMA is the golden-ratio
increment 0x9E3779B97F4A7C15.  All arithmetic is modulo 2**64.

Uniform doubles take the top 53 bits: u = (x >> 11) * 2**-53, giving values
in [0, 1).  The vectorized helpers produce the exact same bits as the
scalar ones.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
#: Seeds are integers in [0, SEED_LIMIT); `mix64` would alias any other.
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1
_INV_2_53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """SplitMix64 output function: a bijective scramble of 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    """64-bit key of an independent substream (e.g. one per shot)."""
    return mix64((mix64(seed) + (stream * GAMMA)) & _MASK64)


def draw_u64(seed: int, stream: int, counter: int) -> int:
    """Raw 64-bit draw number `counter` of the given substream."""
    return mix64((stream_key(seed, stream) + ((counter + 1) * GAMMA)) & _MASK64)


def draw_unit(seed: int, stream: int, counter: int) -> float:
    """Uniform double in [0, 1)."""
    return (draw_u64(seed, stream, counter) >> 11) * _INV_2_53


class SubstreamSampler:
    """Sequential view of one substream; next() walks the counter."""

    def __init__(self, seed: int, stream: int):
        self._seed = seed
        self._stream = stream
        self._counter = 0

    def next_unit(self) -> float:
        u = draw_unit(self._seed, self._stream, self._counter)
        self._counter += 1
        return u


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """`mix64` on every element of a uint64 array, overwriting it."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def unit_matrix(seed: int, streams: int, draws: int, first: int = 0) -> np.ndarray:
    """Uniform [0,1) doubles, shape (streams, draws).

    Row i column k equals draw_unit(seed, first + i, k) bit for bit: the
    rows are substreams first, ..., first + streams - 1, so the matrix is
    rows first...first + streams of the one that starts at stream 0, and
    any subset of rows is independent of the rest.  Array arithmetic on
    uint64 wraps modulo 2**64, as the scalar functions mask.  The result is
    the transpose of a (draws, streams) array, so each column is contiguous.
    """
    keys = np.arange(first, first + streams, dtype=np.uint64)
    keys *= GAMMA
    keys += mix64(seed)
    _mix64_inplace(keys)
    counters = np.arange(1, draws + 1, dtype=np.uint64)
    counters *= GAMMA
    words = np.add.outer(counters, keys)
    _mix64_inplace(words)
    words >>= 11
    # Exact: the 53-bit integers convert to doubles without rounding.
    return np.multiply(words, _INV_2_53).T
