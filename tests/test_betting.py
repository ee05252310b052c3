"""Bet-sizing rules checked against hand-computed values and replayed
from-scratch recurrences."""

from __future__ import annotations

import math
import random

import pytest

from ecalib.core import BettingSpec, BettingStrategy, Direction
from ecalib.betting import ONS_STEP, BettingState, bet_cap, next_bet, observe
from ecalib.eprocess import bet_bound


def spec_for(strategy, clip_fraction=0.75, max_bet_epsilon=1e-6):
    return BettingSpec(strategy, clip_fraction, max_bet_epsilon)


def agrapa_oracle(payoffs, cap):
    """Recompute the aGRAPA bet after the given payoffs from scratch.

    Regularized mean (1/2 prior) over t+1, regularized variance (1/4 prior)
    of squared deviations taken against the mean available just before each
    observation.
    """
    t = len(payoffs)
    mean_now = (0.5 + sum(payoffs)) / (t + 1)
    ssd = 0.0
    for i, g in enumerate(payoffs):
        mean_before = (0.5 + sum(payoffs[:i])) / (i + 1)
        ssd += (g - mean_before) ** 2
    var_now = (0.25 + ssd) / (t + 1)
    raw = mean_now / (var_now + mean_now * mean_now)
    return min(max(raw, 0.0), cap)


def ons_oracle(payoffs, cap):
    """Replay the online Newton step from scratch for the given payoffs."""
    step = 2.0 / (2.0 - math.log(3.0))
    mu, curvature = 0.0, 1.0
    for g in payoffs:
        z = -g / (1.0 + mu * g)
        curvature += z * z
        mu = min(max(mu - step * z / curvature, 0.0), cap)
    return mu


class TestConstantStrategies:
    def test_unit_bet_capped_for_small_alpha(self):
        bound = bet_bound(0.2, Direction.RISK_BELOW)  # mu_max = 1.25
        spec = spec_for(BettingStrategy.UNIT)
        assert next_bet(spec, BettingState(), bound) == pytest.approx(
            0.75 * 1.25 * (1.0 - 1e-6)
        )

    def test_unit_bet_is_one_when_cap_allows(self):
        bound = bet_bound(0.6, Direction.RISK_BELOW)  # mu_max = 2.5
        spec = spec_for(BettingStrategy.UNIT)
        assert next_bet(spec, BettingState(), bound) == 1.0

    def test_max_bet_sits_near_the_boundary(self):
        bound = bet_bound(0.2, Direction.RISK_BELOW)
        spec = spec_for(BettingStrategy.MAX)
        mu = next_bet(spec, BettingState(), bound)
        assert mu == pytest.approx(1.25 * (1.0 - 1e-6))
        assert mu < bound.mu_max

    def test_constant_bets_ignore_history(self):
        bound = bet_bound(0.3, Direction.RISK_BELOW)
        state = BettingState()
        for strategy in (BettingStrategy.UNIT, BettingStrategy.MAX):
            spec = spec_for(strategy)
            before = next_bet(spec, state, bound)
            worse = observe(spec, state, -0.7, before, bound)
            assert next_bet(spec, worse, bound) == before


class TestAgrapa:
    def test_fresh_state_bets_the_prior_ratio(self):
        # mean 1/2, variance 1/4: raw bet 0.5 / (0.25 + 0.25) = 1, then clipped.
        spec = spec_for(BettingStrategy.AGRAPA)
        small = bet_bound(0.2, Direction.RISK_BELOW)  # cap ~0.9375 clips the 1.0
        large = bet_bound(0.6, Direction.RISK_BELOW)  # cap ~1.875 leaves it alone
        assert next_bet(spec, BettingState(), small) == pytest.approx(bet_cap(spec, small))
        assert next_bet(spec, BettingState(), large) == pytest.approx(1.0)

    def test_single_observation_hand_value(self):
        spec = spec_for(BettingStrategy.AGRAPA)
        bound = bet_bound(0.6, Direction.RISK_BELOW)
        state = observe(spec, BettingState(), 0.2, 1.0, bound)
        assert state.reg_mean == pytest.approx(0.35)  # (0.5 + 0.2) / 2
        assert state.reg_var == pytest.approx(0.17)  # (0.25 + 0.09) / 2
        assert next_bet(spec, state, bound) == pytest.approx(0.35 / (0.17 + 0.1225))

    def test_negative_mean_freezes_the_bet_at_zero(self):
        spec = spec_for(BettingStrategy.AGRAPA)
        bound = bet_bound(0.2, Direction.RISK_BELOW)
        state = BettingState()
        state = observe(spec, state, 0.2, 0.9, bound)
        state = observe(spec, state, -0.8, 0.9, bound)
        assert state.reg_mean == pytest.approx((0.5 + 0.2 - 0.8) / 3)
        assert next_bet(spec, state, bound) == 0.0

    def test_matches_from_scratch_replay(self):
        rng = random.Random(99)
        spec = spec_for(BettingStrategy.AGRAPA)
        bound = bet_bound(0.35, Direction.RISK_BELOW)
        cap = bet_cap(spec, bound)
        for sweep in range(30):
            payoffs = [payoff_sample(rng, 0.35) for _ in range(rng.randrange(1, 40))]
            state = BettingState()
            for g in payoffs:
                mu = next_bet(spec, state, bound)
                state = observe(spec, state, g, mu, bound)
            assert next_bet(spec, state, bound) == pytest.approx(
                agrapa_oracle(payoffs, cap), rel=1e-12
            )


class TestOns:
    def test_step_size_constant(self):
        assert ONS_STEP == pytest.approx(2.0 / (2.0 - math.log(3.0)), rel=1e-15)

    def test_first_update_hand_value(self):
        spec = spec_for(BettingStrategy.ONS)
        bound = bet_bound(0.5, Direction.RISK_BELOW)
        assert next_bet(spec, BettingState(), bound) == 0.0
        state = observe(spec, BettingState(), 0.5, 0.0, bound)
        # z = -0.5 / (1 + 0) = -1/2, curvature 1 + 1/4, bet = step * 0.4
        assert state.ons_curvature == pytest.approx(1.25)
        assert next_bet(spec, state, bound) == pytest.approx(ONS_STEP * 0.4)

    def test_matches_from_scratch_replay(self):
        rng = random.Random(123)
        spec = spec_for(BettingStrategy.ONS)
        bound = bet_bound(0.4, Direction.RISK_BELOW)
        cap = bet_cap(spec, bound)
        for sweep in range(30):
            payoffs = [payoff_sample(rng, 0.4) for _ in range(rng.randrange(1, 40))]
            state = BettingState()
            for g in payoffs:
                mu = next_bet(spec, state, bound)
                state = observe(spec, state, g, mu, bound)
            assert next_bet(spec, state, bound) == pytest.approx(
                ons_oracle(payoffs, cap), rel=1e-12
            )


class TestBetRanges:
    @pytest.mark.parametrize(
        "strategy",
        [BettingStrategy.UNIT, BettingStrategy.AGRAPA, BettingStrategy.ONS],
    )
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5, 0.8])
    def test_data_driven_bets_respect_the_cap(self, strategy, alpha):
        rng = random.Random(round(alpha * 1000) + hash(strategy.value) % 1000)
        spec = spec_for(strategy)
        bound = bet_bound(alpha, Direction.RISK_BELOW)
        cap = bet_cap(spec, bound)
        hi = min(1.0, cap) if strategy is BettingStrategy.UNIT else cap
        state = BettingState()
        for _ in range(120):
            mu = next_bet(spec, state, bound)
            assert 0.0 <= mu <= hi
            g = payoff_sample(rng, alpha)
            state = observe(spec, state, g, mu, bound)

    def test_max_bet_stays_strictly_inside(self):
        for alpha in (0.1, 0.5, 0.9):
            bound = bet_bound(alpha, Direction.RISK_BELOW)
            mu = next_bet(spec_for(BettingStrategy.MAX), BettingState(), bound)
            assert 0.0 < mu < bound.mu_max


def payoff_sample(rng: random.Random, alpha: float) -> float:
    return alpha - (1.0 if rng.random() < 0.4 else 0.0)
