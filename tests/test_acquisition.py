"""Batch selection policies: deterministic cases plus seeded sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from ecalib.core import AcquisitionPolicy, AcquisitionSpec
from ecalib.acquisition import select_batch
from ecalib.rng import TAG_ACQ, MixStream


def stream(*parts):
    return MixStream(TAG_ACQ, *parts)


def coin_for(parts) -> float:
    return MixStream(TAG_ACQ, *parts).uniform()


class TestFullBatch:
    def test_tests_everything_every_round(self):
        spec = AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=2)
        for t in (1, 5):
            got = select_batch(spec, [0.0] * 4, frozenset({1}), stream(0, 0, t), t)
            assert got == (0, 1, 2, 3)


class TestRoundRobin:
    def test_rotates_with_wraparound(self):
        spec = AcquisitionSpec(AcquisitionPolicy.ROUND_ROBIN, batch_size=2)
        w = [0.0] * 5
        rounds = [select_batch(spec, w, frozenset(), stream(0, 0, t), t) for t in (1, 2, 3, 4)]
        assert rounds[0] == (0, 1)
        assert rounds[1] == (2, 3)
        assert rounds[2] == (0, 4)  # wraps: offset 6 % 5 = 1... ids 4 and 0
        assert rounds[3] == (1, 2)

    def test_covers_all_ids(self):
        spec = AcquisitionSpec(AcquisitionPolicy.ROUND_ROBIN, batch_size=3)
        seen = set()
        for t in range(1, 8):
            seen.update(select_batch(spec, [0.0] * 7, frozenset(), stream(0, 0, t), t))
        assert seen == set(range(7))


class TestUniformAll:
    def test_draws_from_everyone_even_certified(self):
        spec = AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=3)
        seen = set()
        for t in range(1, 200):
            got = select_batch(spec, [0.0] * 6, frozenset({0, 1, 2, 3, 4}), stream(1, 0, t), t)
            assert len(got) == 3
            assert len(set(got)) == 3
            seen.update(got)
        assert seen == set(range(6))

    def test_deterministic_for_fixed_key(self):
        spec = AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=2)
        a = select_batch(spec, [0.0] * 9, frozenset(), stream(7, 3, 11), 11)
        b = select_batch(spec, [0.0] * 9, frozenset(), stream(7, 3, 11), 11)
        assert a == b


class TestEpsGreedy:
    def find_keys(self, epsilon, n_keys=2):
        """Round keys whose first uniform lands on each side of epsilon."""
        explore, exploit = [], []
        t = 1
        while len(explore) < n_keys or len(exploit) < n_keys:
            (explore if coin_for((5, 0, t)) < epsilon else exploit).append(t)
            t += 1
        return explore[:n_keys], exploit[:n_keys]

    def test_exploit_takes_the_wealth_leader(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=1)
        _, exploit = self.find_keys(0.3)
        t = exploit[0]
        got = select_batch(spec, [0.1, 0.9, 0.5], frozenset(), stream(5, 0, t), t)
        assert got == (1,)

    def test_exploit_ties_break_by_id(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=1)
        _, exploit = self.find_keys(0.3)
        t = exploit[0]
        got = select_batch(spec, [0.5, 0.5, 0.5], frozenset(), stream(5, 0, t), t)
        assert got == (0,)

    def test_certified_are_not_retested(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=1)
        explore, exploit = self.find_keys(0.3, n_keys=30)
        for t in explore + exploit:
            got = select_batch(spec, [0.9, 0.8, 0.1], frozenset({0}), stream(5, 0, t), t)
            assert 0 not in got

    def test_exploit_top_k_for_larger_batches(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=2)
        _, exploit = self.find_keys(0.3)
        t = exploit[0]
        got = select_batch(spec, [0.1, 0.9, 0.5, 0.2], frozenset(), stream(5, 0, t), t)
        assert got == (1, 2)

    def test_explore_draws_within_the_pool(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=2)
        explore, _ = self.find_keys(0.3, n_keys=40)
        seen = set()
        for t in explore:
            got = select_batch(spec, [9.0, 0.0, 0.0, 0.0, 0.0], frozenset({1}), stream(5, 0, t), t)
            assert len(got) == 2
            assert 1 not in got
            seen.update(got)
        # exploration reaches low-wealth ids that greed would never touch
        assert seen == {0, 2, 3, 4}

    def test_empty_pool_signals_exhaustion(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.5, batch_size=1)
        got = select_batch(spec, [0.5, 0.5], frozenset({0, 1}), stream(5, 0, 1), 1)
        assert got == ()

    def test_pool_smaller_than_batch_returned_whole(self):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=3)
        explore, exploit = self.find_keys(0.3)
        for t in (explore[0], exploit[0]):
            got = select_batch(spec, [0.5, 0.4, 0.3], frozenset({1}), stream(5, 0, t), t)
            assert got == (0, 2)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_epsilon_extremes(self, epsilon):
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=epsilon, batch_size=1)
        picks = {
            select_batch(spec, [0.0, 0.0, 3.0], frozenset(), stream(8, 0, t), t)[0]
            for t in range(1, 120)
        }
        if epsilon == 0.0:
            assert picks == {2}  # pure greed never leaves the leader
        else:
            assert picks == {0, 1, 2}  # pure exploration hits everyone


def reference_eps_greedy(spec, wealths, certified, stream):
    """Eps-greedy by a stable argsort over the whole pool: the exploit
    picks are the k highest pool wealths, ties to the lowest ids."""
    pool = np.array([i for i in range(len(wealths)) if i not in certified], dtype=np.intp)
    if not len(pool):
        return ()
    k = min(spec.batch_size, len(pool))
    if stream.uniform() < spec.epsilon:
        ids = pool.tolist()
        return tuple(sorted(ids[j] for j in stream.sample_without_replacement(len(ids), k)))
    w = np.asarray(wealths, dtype=np.float64)[pool]
    return tuple(sorted(pool[np.argsort(-w, kind="stable")[:k]].tolist()))


def tie_heavy_cases(seed, count):
    """(wealths, certified, batch) with few distinct wealths, some -inf, N
    up to 1,000 and batch up to 64; some pools are smaller than the batch,
    and some empty."""
    rng = np.random.default_rng(seed)
    levels = np.array([-np.inf, -1.5, 0.0, 0.0, 0.25, 1.0, 3.0])
    for _ in range(count):
        n = int(rng.choice([1, 2, 5, 20, 64, 129, 300, 1000]))
        wealths = rng.choice(levels[: rng.integers(1, len(levels) + 1)], size=n)
        certified = frozenset(np.flatnonzero(rng.random(n) < rng.choice([0.0, 0.3, 0.9, 1.0])).tolist())
        yield wealths.tolist(), certified, int(rng.integers(1, 65))


class TestEpsGreedyAgainstASort:
    """``select_batch`` cuts the pool at the k-th largest wealth; it must
    give the picks of a stable sort, ties at the cut going to the lowest
    ids."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_picks_equal_a_stable_sort(self, epsilon):
        for t, (wealths, certified, batch) in enumerate(tie_heavy_cases(seed=11, count=300), 1):
            spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=epsilon, batch_size=batch)
            got = select_batch(spec, wealths, certified, stream(3, 0, t), t)
            assert got == reference_eps_greedy(spec, wealths, certified, stream(3, 0, t)), (t, batch)

    def test_ties_at_the_cut_go_to_the_lowest_ids(self):
        # 600 ids tied at 0 below 10 leaders: the batch is the leaders and
        # the first uncertified tied ids.
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.0, batch_size=50)
        wealths = [0.0] * 600
        for i in range(590, 600):
            wealths[i] = 1.0
        certified = frozenset({0, 3})
        got = select_batch(spec, wealths, certified, stream(3, 0, 1), 1)
        assert got == (1, 2, *range(4, 42), *range(590, 600))
