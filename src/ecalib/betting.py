"""Bet-sizing strategies for the wealth processes.

All strategies are predictable (the bet for round t+1 depends only on
payoffs up to round t) and produce bets in [0, mu_max).  Data-driven
strategies are clipped to cap = clip_fraction * mu_max * (1 - max_bet_epsilon).

- UNIT: constant min(1, cap).
- MAX: the near-boundary bet mu_max * (1 - max_bet_epsilon); grows wealth
  fastest against extreme alternatives but is wiped out by one worst-case
  payoff.
- AGRAPA: approximate GRAPA, mu = mean(g) / (var(g) + mean(g)^2) with a
  half-observation prior (1/2 on the sum of payoffs, 1/4 on the squared
  deviations) so early bets stay moderate.
- ONS: online Newton step on the log-wealth gradient with step size
  2 / (2 - ln 3).

The recursions serve both engines: a BettingState holds floats for one
candidate, or numpy arrays with one element per (trial, candidate) pair for
the trial-batched engine.  Every step is elementwise IEEE arithmetic, so an
array element equals the float the same inputs give.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import BettingSpec, BettingStrategy
from .eprocess import BetBound, Payoff

# ONS step size 2 / (2 - ln 3).
ONS_STEP = 2.0 / (2.0 - 1.0986122886681098)


@dataclass
class BettingState:
    """Sufficient statistics accumulated from observed payoffs.

    sum_sq_dev accumulates (g_t - mean_{t-1})^2 against the regularized mean
    available before the observation.  ons_mu is the next ONS bet, already
    clipped; ons_curvature is the accumulated squared-gradient term A_t >= 1.
    Treat instances as immutable: observe() returns a new state.
    """

    t: int = 0
    sum_g: float = 0.0
    sum_sq_dev: float = 0.0
    ons_mu: float = 0.0
    ons_curvature: float = 1.0

    @property
    def reg_mean(self) -> float:
        return (0.5 + self.sum_g) / (self.t + 1)

    @property
    def reg_var(self) -> float:
        return (0.25 + self.sum_sq_dev) / (self.t + 1)


def bet_cap(spec: BettingSpec, bound: BetBound) -> float:
    return spec.clip_fraction * bound.mu_max * (1.0 - spec.max_bet_epsilon)


def _clip(x, hi: float):
    if isinstance(x, np.ndarray):
        return np.where(x < 0.0, 0.0, np.where(x > hi, hi, x))
    if x < 0.0:
        return 0.0
    if x > hi:
        return hi
    return x


def _positive(x):
    """x, or the least positive normal float where x <= 0."""
    if isinstance(x, np.ndarray):
        return np.where(x <= 0.0, sys.float_info.min, x)
    return sys.float_info.min if x <= 0.0 else x


def next_bet(spec: BettingSpec, state: BettingState, bound: BetBound) -> float:
    strategy = spec.strategy
    if strategy is BettingStrategy.UNIT:
        return min(1.0, bet_cap(spec, bound))
    if strategy is BettingStrategy.MAX:
        return bound.mu_max * (1.0 - spec.max_bet_epsilon)
    if strategy is BettingStrategy.AGRAPA:
        m = state.reg_mean
        return _clip(m / (state.reg_var + m * m), bet_cap(spec, bound))
    return state.ons_mu  # ONS


def observe(
    spec: BettingSpec, state: BettingState, g: Payoff, mu_used: float, bound: BetBound
) -> BettingState:
    """Fold one observed payoff into the statistics.

    The squared deviation uses the regularized mean from before this
    observation.  ONS accumulates z = -g / (1 + mu_used * g), the gradient of
    -log(1 + mu g) at the bet actually placed.
    """
    mean_before = state.reg_mean
    dev = g - mean_before
    new_t = state.t + 1
    new_sum_g = state.sum_g + g
    new_ssd = state.sum_sq_dev + dev * dev

    if spec.strategy is BettingStrategy.ONS:
        # denom <= 0 is reachable only through rounding at the bet boundary.
        denom = _positive(1.0 + mu_used * g)
        z = -g / denom
        curvature = state.ons_curvature + z * z
        raw = state.ons_mu - ONS_STEP * z / curvature
        ons_mu = _clip(raw, bet_cap(spec, bound))
        return BettingState(new_t, new_sum_g, new_ssd, ons_mu, curvature)

    return BettingState(new_t, new_sum_g, new_ssd, state.ons_mu, state.ons_curvature)
