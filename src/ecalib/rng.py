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

