"""Test-by-betting e-processes.

Each candidate carries a wealth process starting at 1.  Testing a candidate
with observed risk r yields the payoff g (``alpha - r`` under RISK_BELOW,
``r - alpha`` under REWARD_ABOVE) and multiplies wealth by (1 + mu * g) for
the bet mu chosen before seeing r.  Under the null (candidate not reliable)
the payoff has non-positive conditional mean, so wealth is a nonnegative
supermartingale and Ville's inequality makes 1 / running_max(wealth) an
anytime-valid p-value.

A process is its log wealth, one float starting at 0.  A multiplicative
factor <= 0 (possible only through rounding at the bet boundary) sends it to
-inf, zero wealth, instead of producing NaNs; -inf is absorbing, since
-inf + log1p(x) = -inf.  The running maximum and the p-value live in the
engines (orchestrator), which take them over the merged process.

``payoffs`` and ``updates`` are ``payoff`` and ``update`` over arrays, for
the trial-batched engine.  Its log1p is math's, taken one element at a time
(``each``): numpy's log1p and exp differ from math's in the last bit on
some inputs, and the two engines must agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Direction
from .errors import BetOutOfBounds, OutOfRange

# Payoff g is the stake-normalized margin; wealth update is 1 + mu * g.
Payoff = float


@dataclass(frozen=True)
class BetBound:
    """Largest bet keeping wealth nonnegative for the worst-case payoff.

    Worst case is g = alpha - 1 (risk 1) under RISK_BELOW and g = -alpha
    (reward 0) under REWARD_ABOVE, giving mu_max = 1/(1-alpha) and 1/alpha
    respectively; admissible bets are [0, mu_max).
    """

    alpha: float
    direction: Direction
    mu_max: float


def bet_bound(alpha: float, direction: Direction) -> BetBound:
    if not 0.0 < alpha < 1.0:
        raise OutOfRange("alpha out of (0,1)")
    if direction is Direction.RISK_BELOW:
        return BetBound(alpha, direction, 1.0 / (1.0 - alpha))
    return BetBound(alpha, direction, 1.0 / alpha)


def payoff(risk: float, alpha: float, direction: Direction) -> Payoff:
    if not 0.0 <= risk <= 1.0:
        raise OutOfRange(f"risk {risk!r} out of [0,1]")
    if direction is Direction.RISK_BELOW:
        return alpha - risk
    return risk - alpha


def payoffs(risks: np.ndarray, alpha: float, direction: Direction) -> np.ndarray:
    """``payoff`` of each risk; the caller has checked that they lie in [0, 1]."""
    if direction is Direction.RISK_BELOW:
        return alpha - risks
    return risks - alpha


def update(log_wealth: float, g: Payoff, mu: float, bound: BetBound) -> float:
    """One betting round: log wealth += log(1 + mu * g).

    Requires 0 <= mu < mu_max.  A factor <= 0 (reachable only via rounding
    at the boundary) returns -inf, which every later update keeps.
    """
    if not 0.0 <= mu < bound.mu_max:
        raise BetOutOfBounds(f"mu {mu!r} outside [0, {bound.mu_max!r})")
    x = mu * g
    if x <= -1.0:
        return -math.inf
    return log_wealth + math.log1p(x)


def each(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` of every element of ``x``, computed by the float function."""
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=np.float64, count=x.size).reshape(x.shape)


def updates(log_wealth: np.ndarray, g: np.ndarray, mu, bound: BetBound) -> np.ndarray:
    """``update`` of each element; ``mu`` is an array or one shared bet."""
    # Two reductions check every bet that meets a payoff: broadcasting to a
    # nonempty shape repeats each bet, and a NaN bet fails both compares.
    mus = np.asarray(mu)
    if np.size(g) and not (mus.min() >= 0.0 and mus.max() < bound.mu_max):
        mus = np.broadcast_to(mus, np.shape(g))
        out_of_bounds = ~((mus >= 0.0) & (mus < bound.mu_max))
        raise BetOutOfBounds(f"mu {float(mus[out_of_bounds][0])!r} outside [0, {bound.mu_max!r})")
    x = mu * g
    if x.min(initial=0.0) > -1.0:  # no factor reaches ruin (a NaN takes the masked path)
        return log_wealth + each(math.log1p, x)
    ruined = x <= -1.0
    out = log_wealth + each(math.log1p, np.where(ruined, 0.0, x))
    out[ruined] = -math.inf
    return out


def quantile_transform(raw_risk, threshold: float):
    """Indicator 1[raw <= threshold], turning a quantile requirement on the
    raw score into a mean requirement on the transformed one.  Elementwise
    over an array of raw risks."""
    raw = np.asarray(raw_risk, dtype=np.float64)
    out_of_range = ~((raw >= 0.0) & (raw <= 1.0))
    if out_of_range.any():
        raise OutOfRange(f"raw risk {float(raw[out_of_range].flat[0])!r} out of [0,1]")
    indicator = (raw <= threshold).astype(np.int64)
    return indicator if indicator.ndim else int(indicator)
