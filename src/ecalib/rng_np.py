"""Vectorized mirror of the scalar splitmix64 scheme in ``rng``, used by the
trial-batched engine: one element per trial (or trial-candidate pair), each
equal to its scalar counterpart.  uint64 arithmetic wraps like the scalar
masked arithmetic does.  It lives apart from ``rng`` so that scalar users,
such as the oracle child ``demo_oracle``, never import numpy.
"""

from __future__ import annotations

import numpy as np

from .rng import _INV_2_53, GOLDEN, MASK64

_NP_GOLDEN = np.uint64(GOLDEN)
_NP_M1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_M2 = np.uint64(0x94D049BB133111EB)
_NP_LOW32 = np.uint64(0xFFFFFFFF)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S32 = np.uint64(32)
_S11 = np.uint64(11)


def _scramble_np(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point; callers silence numpy's overflow
    # warning, which only 0-d operands raise.  z is never written: the first
    # step makes the array the rest updates in place.
    z = z ^ (z >> _S30)
    z *= _NP_M1
    z ^= z >> _S27
    z *= _NP_M2
    z ^= z >> _S31
    return z


def mix64_from_np(h: np.ndarray, *parts: np.ndarray | int) -> np.ndarray:
    """Vectorized mix64_from over broadcastable uint64 prefixes and parts."""
    with np.errstate(over="ignore"):
        for p in parts:
            if isinstance(p, int):
                h = _scramble_np(h + np.uint64((GOLDEN + p) & MASK64))
            else:
                h = _scramble_np(h + _NP_GOLDEN + np.asarray(p, dtype=np.uint64))
    return h


def mix64_np(parts: list[np.ndarray | int]) -> np.ndarray:
    """Vectorized mix64 over broadcastable uint64 part arrays."""
    return mix64_from_np(np.uint64(0), *parts)


def stream_u64_np(states: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """The k-th ``next_u64`` (k >= 1) of the streams whose states are
    ``states``; an array k broadcasts against them."""
    with np.errstate(over="ignore"):
        if isinstance(k, int):
            return _scramble_np(states + np.uint64((k * GOLDEN) & MASK64))
        return _scramble_np(states + np.asarray(k, dtype=np.uint64) * _NP_GOLDEN)


def uniform_np(u64: np.ndarray) -> np.ndarray:
    """``MixStream.uniform`` of each u64 output."""
    return (u64 >> _S11).astype(np.float64) * _INV_2_53


def randbelow_np(u64: np.ndarray, n: np.ndarray | int) -> np.ndarray:
    """``MixStream.randbelow`` of each u64 output, exact for n < 2**32.

    The high word of the 128-bit product u64 * n is taken in 32-bit halves
    (Lemire, arXiv:1805.10941): with u64 = hi * 2**32 + lo it is
    (hi * n + (lo * n >> 32)) >> 32, and no partial product overflows.
    """
    n = np.asarray(n, dtype=np.uint64)
    return (((u64 >> _S32) * n + (((u64 & _NP_LOW32) * n) >> _S32)) >> _S32).astype(np.intp)


def unit_uniform_from_np(prefix: np.ndarray, *parts: np.ndarray | int) -> np.ndarray:
    """Vectorized unit_uniform_from over broadcastable prefixes and parts."""
    return uniform_np(stream_u64_np(mix64_from_np(prefix, *parts), 1))
