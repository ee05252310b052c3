"""Deterministic counter-based randomness built on the splitmix64 mixer.

Every random quantity in the package is derived from an integer key, never
from shared generator state, so any (config, seed) pair replays bit-for-bit
regardless of execution order, process count, or platform.  The scheme,
recorded in run manifests as ``splitmix64-v1``:

- ``_scramble`` is the splitmix64 output function.
- ``mix64(*parts)`` folds the key parts: h = 0, then for each part p,
  h = _scramble(h + GOLDEN + p mod 2**64).
- A stream keyed by parts emits outputs _scramble(s + k * GOLDEN) for
  k = 1, 2, ... with s = mix64(*parts).
- Uniforms in [0, 1) take the top 53 bits: u64 >> 11, scaled by 2**-53.
- Bounded integers use the multiply-then-shift reduction (u64 * n) >> 64.

The fold is a left fold, so a key prefix can be hashed once and continued:
``mix64_from(mix64(a, b, c), d, e) == mix64(a, b, c, d, e)``.  The engine
and the synthetic sources hash their (tag, seed, trial) prefixes once per
run and fold only the per-round parts, which yields the same keys as hashing
every key in full.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

MIXER_ID = "splitmix64-v1"

# Key-space tags keeping the independent stream families disjoint.
TAG_RISK = 0xD1CE
TAG_SHARED = 0x5A5E
TAG_ACQ = 0xACC1
TAG_TOKEN = 0x70C3

_INV_2_53 = 2.0**-53


def _scramble(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix64_from(h: int, *parts: int) -> int:
    """Continue the fold of ``mix64`` from ``h``, the hash of a key prefix."""
    for p in parts:
        h = _scramble((h + GOLDEN + (p & MASK64)) & MASK64)
    return h


def mix64(*parts: int) -> int:
    """Fold integer key parts into a single 64-bit hash."""
    return mix64_from(0, *parts)


class MixStream:
    """Counter-mode stream over the key given by ``parts``."""

    __slots__ = ("_state",)

    def __init__(self, *parts: int):
        self._state = mix64(*parts)

    @classmethod
    def from_prefix(cls, prefix: int, *parts: int) -> "MixStream":
        """The stream keyed by the parts hashed into ``prefix`` plus ``parts``."""
        stream = cls.__new__(cls)
        stream._state = mix64_from(prefix, *parts)
        return stream

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _scramble(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _INV_2_53

    def randbelow(self, n: int) -> int:
        # Lemire multiply-shift; slight bias is irrelevant at n << 2**64.
        return (self.next_u64() * n) >> 64

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct draws from range(n) via a partial Fisher-Yates pass.

        Only displaced slots are stored: ``moved[s]`` is the value at slot s
        once a swap has touched it, and slot j is final after step j.
        """
        moved: dict[int, int] = {}
        picks = []
        for j in range(k):
            swap = j + self.randbelow(n - j)
            picks.append(moved.get(swap, swap))
            moved[swap] = moved.get(j, j)
        return picks


def unit_uniform_from(prefix: int, *parts: int) -> float:
    """``unit_uniform`` of the key whose prefix hashes to ``prefix``."""
    return (_scramble((mix64_from(prefix, *parts) + GOLDEN) & MASK64) >> 11) * _INV_2_53


def unit_uniform(*parts: int) -> float:
    """First uniform of the stream keyed by ``parts``."""
    return unit_uniform_from(0, *parts)


# Vectorized mirror of the scalar path, used by the trial-batched engine:
# one element per trial (or trial-candidate pair), each equal to its scalar
# counterpart.  uint64 arithmetic wraps like the scalar masked arithmetic does.

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
