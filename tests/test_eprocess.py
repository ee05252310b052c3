"""Wealth-process arithmetic checked against direct product computation."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from ecalib.core import Direction
from ecalib.eprocess import BetBound, bet_bound, payoff, quantile_transform, update, updates
from ecalib.errors import BetOutOfBounds, OutOfRange


class TestBetBound:
    def test_risk_below(self):
        b = bet_bound(0.2, Direction.RISK_BELOW)
        assert b.mu_max == pytest.approx(1.25)

    def test_reward_above(self):
        b = bet_bound(0.2, Direction.REWARD_ABOVE)
        assert b.mu_max == pytest.approx(5.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(OutOfRange):
            bet_bound(alpha, Direction.RISK_BELOW)


class TestPayoff:
    def test_risk_below_sign(self):
        assert payoff(0.0, 0.2, Direction.RISK_BELOW) == pytest.approx(0.2)
        assert payoff(1.0, 0.2, Direction.RISK_BELOW) == pytest.approx(-0.8)

    def test_reward_above_sign(self):
        assert payoff(1.0, 0.2, Direction.REWARD_ABOVE) == pytest.approx(0.8)
        assert payoff(0.0, 0.2, Direction.REWARD_ABOVE) == pytest.approx(-0.2)

    @pytest.mark.parametrize("risk", [-0.01, 1.01])
    def test_risk_domain(self, risk):
        with pytest.raises(OutOfRange):
            payoff(risk, 0.5, Direction.RISK_BELOW)


class TestUpdate:
    def test_wealth_matches_direct_product(self):
        # Log-domain bookkeeping vs the naive float product of (1 + mu g).
        rng = random.Random(2024)
        bound = bet_bound(0.3, Direction.RISK_BELOW)
        for sweep in range(50):
            log_wealth = 0.0
            product = 1.0
            for _ in range(rng.randrange(1, 60)):
                g = payoff(rng.random(), 0.3, Direction.RISK_BELOW)
                mu = rng.random() * bound.mu_max * 0.75
                log_wealth = update(log_wealth, g, mu, bound)
                product *= 1.0 + mu * g
            assert isinstance(log_wealth, float)
            assert math.exp(log_wealth) == pytest.approx(product, rel=1e-12)

    def test_bet_domain_enforced(self):
        bound = bet_bound(0.2, Direction.RISK_BELOW)
        with pytest.raises(BetOutOfBounds):
            update(0.0, 0.1, -0.01, bound)
        with pytest.raises(BetOutOfBounds):
            update(0.0, 0.1, bound.mu_max, bound)
        # the check holds after bankruptcy too
        with pytest.raises(BetOutOfBounds):
            update(-math.inf, 0.1, bound.mu_max, bound)

    def test_array_bet_domain_names_the_first_bad_bet(self):
        bound = bet_bound(0.2, Direction.RISK_BELOW)
        lw, g = np.zeros(4), np.full(4, 0.1)
        for mus, bad in (([0.1, math.nan, -1.0, 0.2], "nan"), ([0.1, 0.2, -0.5, math.nan], "-0.5"),
                         ([0.0, bound.mu_max, 0.3, 0.2], repr(bound.mu_max)), ([0.1, math.inf, 0.0, 0.0], "inf")):
            with pytest.raises(BetOutOfBounds, match=rf"^mu {bad} outside \[0, 1\.25\)$"):
                updates(lw, g, np.array(mus), bound)
        with pytest.raises(BetOutOfBounds, match=r"^mu -0\.1 outside"):
            updates(lw, g, -0.1, bound)  # one shared bet
        # An empty round checks no bet, whichever bet it is given.
        for mu in (np.array([]), -0.1, math.nan):
            assert updates(np.zeros(0), np.zeros(0), mu, bound).shape == (0,)

    def test_zero_bet_leaves_wealth_unchanged(self):
        bound = bet_bound(0.2, Direction.RISK_BELOW)
        assert update(0.0, -0.8, 0.0, bound) == 0.0
        assert update(1.25, 0.2, 0.0, bound) == 1.25

    def test_bankruptcy_is_absorbing(self):
        # A factor of exactly zero empties the wealth forever.
        bound = BetBound(0.5, Direction.RISK_BELOW, 2.0000001)
        log_wealth = update(0.0, -0.5, 2.0, bound)
        assert log_wealth == -math.inf
        assert math.exp(log_wealth) == 0.0
        for g, mu in [(0.5, 1.0), (0.5, 2.0), (-0.5, 2.0), (-0.5, 0.0)]:
            log_wealth = update(log_wealth, g, mu, bound)
            assert log_wealth == -math.inf


class TestQuantileTransform:
    def test_indicator_with_inclusive_threshold(self):
        assert quantile_transform(0.56, 0.57) == 1
        assert quantile_transform(0.57, 0.57) == 1
        assert quantile_transform(0.5700001, 0.57) == 0

    def test_raw_risk_domain(self):
        with pytest.raises(OutOfRange):
            quantile_transform(1.2, 0.5)


class TestVilleSmoke:
    def test_null_certification_rate_bounded(self):
        # Bernoulli(0.6) risk with alpha=0.5 (true null); fixed bet 0.5.
        # P(wealth ever >= 10) must stay below 1/10 by Ville's inequality.
        bound = bet_bound(0.5, Direction.RISK_BELOW)
        rng = random.Random(7)
        ever = 0
        trials = 2000
        for _ in range(trials):
            log_wealth = 0.0
            for _ in range(80):
                risk = 1.0 if rng.random() < 0.6 else 0.0
                log_wealth = update(log_wealth, payoff(risk, 0.5, Direction.RISK_BELOW), 0.5, bound)
                if log_wealth >= math.log(10.0):
                    ever += 1
                    break
        bound_p = 0.1
        margin = 3.0 * math.sqrt(bound_p * (1 - bound_p) / trials)
        assert ever / trials <= bound_p + margin
