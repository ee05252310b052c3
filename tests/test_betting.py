"""Bet-sizing rules checked against hand-computed values and replayed
from-scratch recurrences."""

from __future__ import annotations

import dataclasses
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecalib.core import BettingSpec, BettingStrategy, Direction
from ecalib.betting import ONS_STEP, BettingState, _clip, bet_cap, bind, next_bet, observe
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


def reference_bet(spec, state, bound):
    """The bet of each strategy, written out per strategy on floats."""
    cap = bet_cap(spec, bound)
    if spec.strategy is BettingStrategy.UNIT:
        return min(1.0, cap)
    if spec.strategy is BettingStrategy.MAX:
        return bound.mu_max * (1.0 - spec.max_bet_epsilon)
    if spec.strategy is BettingStrategy.AGRAPA:
        m = state.reg_mean
        raw = m / (state.reg_var + m * m)
        return 0.0 if raw < 0.0 else cap if raw > cap else raw
    return state.ons_mu


def reference_observe(spec, state, g, mu, bound):
    """The statistics after one payoff, written out on floats."""
    dev = g - state.reg_mean
    folded = [state.t + 1, state.sum_g + g, state.sum_sq_dev + dev * dev, state.ons_mu, state.ons_curvature]
    if spec.strategy is BettingStrategy.ONS:
        denom = 1.0 + mu * g
        z = -g / (sys.float_info.min if denom <= 0.0 else denom)
        curvature = state.ons_curvature + z * z
        raw = state.ons_mu - ONS_STEP * z / curvature
        cap = bet_cap(spec, bound)
        folded[3:] = 0.0 if raw < 0.0 else cap if raw > cap else raw, curvature
    return BettingState(*folded)


def _hexes(values):
    return [float(v).hex() for v in values]


@st.composite
def betting_states(draw, cap):
    t = draw(st.integers(0, 500))
    return BettingState(
        t,
        draw(st.sampled_from([0.0, -0.5, -2.0]) | st.floats(-3.0 * (t + 1), 3.0 * (t + 1))),
        draw(st.sampled_from([0.0]) | st.floats(0.0, 4.0 * (t + 1))),
        draw(st.sampled_from([0.0, cap]) | st.floats(0.0, cap)),
        draw(st.sampled_from([1.0]) | st.floats(1.0, 1e4)),
    )


def _payoff_range(alpha, direction):
    """The payoff range of the direction: its worst payoff at the bet mu_max
    makes 1 + mu g zero, where ONS's floor applies."""
    return (alpha - 1.0, alpha) if direction is Direction.RISK_BELOW else (-alpha, 1.0 - alpha)


@st.composite
def bound_cases(draw):
    """A strategy, direction and alpha, and up to 8 processes: a state, a
    payoff and the bet placed."""
    strategy = draw(st.sampled_from(BettingStrategy))
    direction = draw(st.sampled_from(Direction))
    alpha = draw(st.sampled_from([0.2, 0.5]) | st.floats(0.01, 0.99))
    bound = bet_bound(alpha, direction)
    cap = bet_cap(spec_for(strategy), bound)
    worst, best = _payoff_range(alpha, direction)
    size = draw(st.integers(1, 8))
    states = [draw(betting_states(cap)) for _ in range(size)]
    gs = [draw(st.sampled_from([worst, best, 0.0]) | st.floats(worst, best)) for _ in range(size)]
    mus = [draw(st.sampled_from([0.0, cap, bound.mu_max]) | st.floats(0.0, bound.mu_max)) for _ in range(size)]
    return strategy, direction, alpha, states, gs, mus


# Inputs of _clip at its edges; the strings name the cap and its neighbours.
CLIP_EDGES = [-0.0, 0.0, math.nan, math.inf, -math.inf, "cap", "below cap", "above cap"]


def clip_edge_examples(test):
    """An ``@example`` of each edge input of _clip, for AGRAPA and ONS, on a
    case of no drawn processes."""
    for strategy in (BettingStrategy.AGRAPA, BettingStrategy.ONS):
        for edge in CLIP_EDGES:
            test = example(case=(strategy, Direction.RISK_BELOW, 0.2, [], [], []), clip_at=edge)(test)
    return test


class TestBoundStrategy:
    """``bind``'s bet and fold are next_bet and observe, on floats and
    elementwise on arrays, bit for bit, and both are the recursion written
    out per strategy.  _clip's array path gives its float path's bits."""

    @settings(max_examples=200, deadline=None)
    @given(case=bound_cases(), clip_at=st.sampled_from(CLIP_EDGES) | st.floats())
    @clip_edge_examples
    def test_bound_bet_and_fold_are_next_bet_and_observe(self, case, clip_at):
        kind, direction, alpha, states, gs, mus = case
        spec = spec_for(kind)
        bound = bet_bound(alpha, direction)
        cap = bet_cap(spec, bound)
        worst, best = _payoff_range(alpha, direction)
        # A fresh state (AGRAPA's prior bet clipped at small alpha), one that
        # bets at the floor of 0, and the worst payoff at mu_max.
        states = [*states, BettingState(), BettingState(3, -2.0, 1.0, 0.0, 1.0)]
        gs = [*gs, worst, worst]
        mus = [*mus, bound.mu_max, bound.mu_max]

        strategy = bind(spec, bound)
        assert strategy.bound is bound
        bets, folds = [], []
        for state, g, mu in zip(states, gs, mus):
            fields = dataclasses.astuple(state)
            bet = strategy.bet(*fields[:4])
            assert bet.hex() == next_bet(spec, state, bound).hex() == reference_bet(spec, state, bound).hex()
            fold = strategy.fold(*fields, g, mu)
            assert _hexes(fold) == _hexes(dataclasses.astuple(observe(spec, state, g, mu, bound)))
            assert _hexes(fold) == _hexes(dataclasses.astuple(reference_observe(spec, state, g, mu, bound)))
            bets.append(bet)
            folds.append(fold)

        # As the array layouts hold them: one element per process, the
        # tested count as a float.
        columns = BettingState(*(np.array(c, dtype=np.float64) for c in zip(*map(dataclasses.astuple, states))))
        g, mu = np.array(gs), np.array(mus)
        array_bets = np.broadcast_to(next_bet(spec, columns, bound), len(states))
        assert _hexes(array_bets.tolist()) == _hexes(bets)
        assert _hexes(np.broadcast_to(strategy.bet(*dataclasses.astuple(columns)[:4]), len(states))) == _hexes(bets)
        with np.errstate(over="ignore"):  # past the floor z * z is inf, as on floats
            folded = dataclasses.astuple(observe(spec, columns, g, mu, bound))
        for k, field in enumerate(folded):
            assert _hexes(np.broadcast_to(field, len(states)).tolist()) == _hexes(f[k] for f in folds)

        near = {"cap": cap, "below cap": math.nextafter(cap, -math.inf), "above cap": math.nextafter(cap, math.inf)}
        x = near.get(clip_at, clip_at)
        assert _clip(np.array([x]), cap)[0].hex() == _clip(x, cap).hex()
