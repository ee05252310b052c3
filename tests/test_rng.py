"""Deterministic stream tests for the counter-based mixer.

The scrambler is pinned to the splitmix64 finalizer, so its outputs are
checked against the published reference sequence (seed 0 and seed
0x42 counters), not against our own implementation.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ecalib.rng import GOLDEN, MASK64, MIXER_ID, MixStream, _scramble, mix64, mix64_from, unit_uniform
from ecalib.rng_np import mix64_from_np, mix64_np, stream_u64_np, unit_uniform_from_np

# SplitMix64 reference outputs for seed 0: the first values of the recurrence
# state += GOLDEN; out = scramble(state).  Widely published test vector.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


class TestMixerReference:
    def test_matches_published_splitmix64_sequence(self):
        state = 0
        got = []
        for _ in range(5):
            state = (state + GOLDEN) & MASK64
            got.append(_scramble(state))
        assert got == SPLITMIX64_SEED0

    def test_mixer_id_is_pinned(self):
        assert MIXER_ID == "splitmix64-v1"

    def test_mix64_folds_every_part(self):
        base = mix64(1, 2, 3)
        assert mix64(1, 2, 3) == base
        assert mix64(1, 2, 4) != base
        assert mix64(1, 3, 2) != base
        assert mix64(2, 1, 3) != base
        assert 0 <= base <= MASK64

    def test_streams_with_different_keys_diverge(self):
        a = MixStream(7, 1)
        b = MixStream(7, 2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_stream_is_replayable(self):
        xs = [MixStream(3, 9, 2).next_u64() for _ in range(3)]
        ys = [MixStream(3, 9, 2).next_u64() for _ in range(3)]
        assert xs == ys


class TestUniform:
    def test_unit_interval(self):
        stream = MixStream(123)
        for _ in range(1000):
            u = stream.uniform()
            assert 0.0 <= u < 1.0

    def test_unit_uniform_is_a_pure_function(self):
        assert unit_uniform(5, 6, 7) == unit_uniform(5, 6, 7)
        assert unit_uniform(5, 6, 7) != unit_uniform(5, 6, 8)

    def test_mean_of_many_draws(self):
        # 53-bit uniforms; the mean over 1e5 counters should sit near 1/2.
        us = [unit_uniform(11, i) for i in range(100_000)]
        assert abs(float(np.mean(us)) - 0.5) < 3.0 * 0.2887 / np.sqrt(100_000)


class TestRandbelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 1000])
    def test_range(self, n):
        stream = MixStream(42, n)
        for _ in range(200):
            x = stream.randbelow(n)
            assert 0 <= x < n

    def test_all_values_reachable_small_n(self):
        stream = MixStream(4)
        seen = {stream.randbelow(5) for _ in range(500)}
        assert seen == {0, 1, 2, 3, 4}


class TestSampleWithoutReplacement:
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 5), (10, 3), (20, 7)])
    def test_valid_subset(self, n, k):
        for rep in range(50):
            picks = MixStream(9, n, k, rep).sample_without_replacement(n, k)
            assert len(picks) == k
            assert len(set(picks)) == k
            assert all(0 <= i < n for i in picks)

    def test_uniform_coverage(self):
        # Every 2-subset of 5 ids should appear under repeated sampling.
        seen = set()
        for rep in range(400):
            picks = MixStream(13, rep).sample_without_replacement(5, 2)
            seen.add(frozenset(picks))
        assert len(seen) == 10


class TestNumpyMirror:
    def test_mix64_np_matches_scalar(self):
        idx = np.arange(50, dtype=np.uint64)
        vec = mix64_np([0xD1CE, 7, idx, 3, 0])
        scalar = [mix64(0xD1CE, 7, int(i), 3, 0) for i in range(50)]
        assert vec.dtype == np.uint64
        assert [int(v) for v in vec] == scalar

    def test_unit_uniform_from_np_matches_scalar(self):
        idx = np.arange(50, dtype=np.uint64)
        vec = unit_uniform_from_np(np.uint64(0), 0xACC1, 5, idx, 10, 0, 0)
        scalar = [unit_uniform(0xACC1, 5, int(i), 10, 0, 0) for i in range(50)]
        np.testing.assert_array_equal(vec, np.asarray(scalar))

    def test_golden_constant_matches_reference(self):
        assert GOLDEN == 0x9E3779B97F4A7C15

    # Values next to 2**64, so that every add and multiply wraps.
    HIGH = [MASK64, MASK64 - GOLDEN + 1, 0x8000000000000000, 12345]

    def test_0d_operands_wrap_without_a_warning(self):
        # numpy warns of wraparound in arithmetic on scalars; the helpers
        # silence it for a 0-d prefix or state, of any kind.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in self.HIGH:
                for zero_d in (h, np.uint64(h), np.asarray(h, dtype=np.uint64)):
                    assert int(mix64_from_np(zero_d, MASK64, np.uint64(h))) == mix64_from(h, MASK64, h)
                    for k in (1, MASK64, np.uint64(3)):
                        assert int(stream_u64_np(zero_d, k)) == _scramble(h + int(k) * GOLDEN)
            assert int(mix64_np([MASK64, MASK64])) == mix64(MASK64, MASK64)

    def test_arrays_keep_their_bits(self):
        # A prefix or state of one or more dimensions takes the path without
        # errstate; broadcasting a one-element prefix is how a one-run source
        # folds a round's ids.
        high = np.array(self.HIGH, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in self.HIGH:
                got = mix64_from_np(np.array([h], dtype=np.uint64), high, 7)
                assert got.tolist() == [mix64_from(h, p, 7) for p in self.HIGH]
            grid = mix64_from_np(high[:, None], high[None, :])
            assert grid.tolist() == [[mix64_from(a, b) for b in self.HIGH] for a in self.HIGH]
            for k in (1, MASK64, high):
                got = stream_u64_np(high, k)
                ks = k.tolist() if isinstance(k, np.ndarray) else [k] * len(self.HIGH)
                assert got.tolist() == [_scramble(s + j * GOLDEN) for s, j in zip(self.HIGH, ks)]
