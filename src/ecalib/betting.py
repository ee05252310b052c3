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

``bind`` fixes a strategy to one metric's BetBound (alpha, direction and
mu_max, hence the cap) once per run.  The bound strategy's bet and its fold
of one payoff into the statistics are elementwise functions of the
statistics: over floats for one process, as ``_run``'s per-id layout keeps
them in flat lists, or over numpy arrays with one element per (trial,
candidate) pair, as the array layout's state keeps them.  Both engines call
the bound strategies.  Every step is IEEE arithmetic, so an array element
equals the float the same inputs give.  ``next_bet`` and ``observe`` are
the same functions over a BettingState, the public per-state API; neither
engine calls them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy import ndarray  # a global: np.ndarray's lookup was half of _clip's float path

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
    if isinstance(x, ndarray):
        # The same bits as the float path, -0.0 and NaN included; the method
        # skips np.clip's dispatch.
        return x.clip(0.0, hi)
    if x < 0.0:
        return 0.0
    if x > hi:
        return hi
    return x


def _positive(x):
    """x, or the least positive normal float where x <= 0."""
    if isinstance(x, ndarray):
        return np.where(x <= 0.0, sys.float_info.min, x)
    return sys.float_info.min if x <= 0.0 else x


def _fold(t, sum_g, sum_sq_dev, ons_mu, ons_curvature, g, mu):
    """The statistics after payoff g: the squared deviation is taken against
    the regularized mean from before it; the ONS fields pass through."""
    dev = g - (0.5 + sum_g) / (t + 1)
    return t + 1, sum_g + g, sum_sq_dev + dev * dev, ons_mu, ons_curvature


class BoundStrategy(NamedTuple):
    """A BettingSpec bound to one metric's BetBound.

    ``bet(t, sum_g, sum_sq_dev, ons_mu)`` is the next bet, and
    ``fold(t, sum_g, sum_sq_dev, ons_mu, ons_curvature, g, mu)`` the tuple of
    the five statistics after payoff g at the bet mu, in BettingState's
    order.  Both are elementwise over floats or arrays.  A named tuple, as
    next_bet and observe bind one per call.
    """

    bound: BetBound
    bet: Callable
    fold: Callable


def bind(spec: BettingSpec, bound: BetBound) -> BoundStrategy:
    """spec's strategy for one metric, with bound's cap and mu_max fixed."""
    cap = bet_cap(spec, bound)
    strategy = spec.strategy
    fold = _fold
    if strategy is BettingStrategy.AGRAPA:
        def bet(t, sum_g, sum_sq_dev, ons_mu):
            n = t + 1
            m = (0.5 + sum_g) / n
            return _clip(m / ((0.25 + sum_sq_dev) / n + m * m), cap)
    elif strategy is BettingStrategy.ONS:
        def bet(t, sum_g, sum_sq_dev, ons_mu):
            return ons_mu

        def fold(t, sum_g, sum_sq_dev, ons_mu, ons_curvature, g, mu):
            # z = -g / (1 + mu g) is the gradient of -log(1 + mu g) at the bet
            # placed; a denominator <= 0 is reachable only through rounding
            # at the bet boundary.
            z = -g / _positive(1.0 + mu * g)
            curvature = ons_curvature + z * z
            return _fold(t, sum_g, sum_sq_dev, _clip(ons_mu - ONS_STEP * z / curvature, cap), curvature, g, mu)
    else:
        constant = min(1.0, cap) if strategy is BettingStrategy.UNIT else bound.mu_max * (1.0 - spec.max_bet_epsilon)

        def bet(t, sum_g, sum_sq_dev, ons_mu):
            return constant
    return BoundStrategy(bound, bet, fold)


def next_bet(spec: BettingSpec, state: BettingState, bound: BetBound) -> float:
    return bind(spec, bound).bet(state.t, state.sum_g, state.sum_sq_dev, state.ons_mu)


def observe(
    spec: BettingSpec, state: BettingState, g: Payoff, mu_used: float, bound: BetBound
) -> BettingState:
    """Fold one observed payoff into the statistics (``BoundStrategy.fold``)."""
    return BettingState(*bind(spec, bound).fold(
        state.t, state.sum_g, state.sum_sq_dev, state.ons_mu, state.ons_curvature, g, mu_used))
