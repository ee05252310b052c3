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
        """k distinct draws from range(n) via a partial Fisher-Yates pass."""
        pool = list(range(n))
        for j in range(k):
            swap = j + self.randbelow(n - j)
            pool[j], pool[swap] = pool[swap], pool[j]
        return pool[:k]


def unit_uniform_from(prefix: int, *parts: int) -> float:
    """``unit_uniform`` of the key whose prefix hashes to ``prefix``."""
    return (_scramble((mix64_from(prefix, *parts) + GOLDEN) & MASK64) >> 11) * _INV_2_53


def unit_uniform(*parts: int) -> float:
    """First uniform of the stream keyed by ``parts``."""
    return unit_uniform_from(0, *parts)


# Vectorized mirror of the scalar path, used by the Monte Carlo fast lane.
# uint64 arithmetic wraps like the scalar masked arithmetic does.

_NP_GOLDEN = np.uint64(GOLDEN)
_NP_M1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def _scramble_np(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point; silence numpy's overflow warning.
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _S30)) * _NP_M1
        z = (z ^ (z >> _S27)) * _NP_M2
        return z ^ (z >> _S31)


def mix64_np(parts: list[np.ndarray | int]) -> np.ndarray:
    """Vectorized mix64 over broadcastable uint64 part arrays."""
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for p in parts:
            arr = np.asarray(p, dtype=np.uint64)
            h = _scramble_np(h + _NP_GOLDEN + arr)
    return h


def unit_uniform_np(parts: list[np.ndarray | int]) -> np.ndarray:
    """Vectorized unit_uniform over broadcastable key parts."""
    h = mix64_np(parts)
    with np.errstate(over="ignore"):
        return (_scramble_np(h + _NP_GOLDEN) >> _S11).astype(np.float64) * _INV_2_53
