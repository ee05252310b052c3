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
engine (orchestrator._run), which takes them over the merged process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def quantile_transform(raw_risk: float, threshold: float) -> int:
    """Indicator 1[raw <= threshold], turning a quantile requirement on the
    raw score into a mean requirement on the transformed one."""
    if not 0.0 <= raw_risk <= 1.0:
        raise OutOfRange(f"raw risk {raw_risk!r} out of [0,1]")
    return 1 if raw_risk <= threshold else 0
