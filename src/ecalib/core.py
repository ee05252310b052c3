"""Domain types for sequential candidate certification.

A calibration run tests N candidate configurations (ids 0..N-1) against a
risk requirement: under ``RISK_BELOW`` a candidate is reliable when its mean
risk is at most ``alpha``; under ``REWARD_ABOVE`` when its mean reward
exceeds ``alpha``.  Everything downstream (payoffs, bet bounds, ground-truth
reliable sets) derives from that convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidConfig, InvalidOrder, OutOfRange


class Direction(enum.Enum):
    RISK_BELOW = "risk_below"
    REWARD_ABOVE = "reward_above"


class ErrorMetric(enum.Enum):
    FWER = "fwer"
    FDR = "fdr"


class SelectionRuleName(enum.Enum):
    BONFERRONI = "bonferroni"
    FIXED_SEQUENCE = "fixed_sequence"
    BH = "bh"
    BY = "by"
    EBH = "ebh"


class BettingStrategy(enum.Enum):
    UNIT = "unit"
    MAX = "max"
    AGRAPA = "agrapa"
    ONS = "ons"


class AcquisitionPolicy(enum.Enum):
    EPS_GREEDY = "eps_greedy"
    UNIFORM_ALL = "uniform_all"
    ROUND_ROBIN = "round_robin"
    FULL_BATCH = "full_batch"


# Rules that control the family-wise error rate; the others control the FDR.
FWER_RULES = frozenset({SelectionRuleName.BONFERRONI, SelectionRuleName.FIXED_SEQUENCE})


@dataclass(frozen=True)
class MetricSpec:
    """One additional risk requirement in a composite (all-must-hold) null."""

    alpha: float
    direction: Direction


@dataclass(frozen=True)
class BettingSpec:
    """Betting strategy plus the clipping constants shared by all strategies.

    The admissible bet range is [0, mu_max) with mu_max set by the payoff
    bound; data-driven strategies are clipped to
    cap = clip_fraction * mu_max * (1 - max_bet_epsilon), strictly inside
    the admissible range so wealth can never be wiped out by one round.
    """

    strategy: BettingStrategy = BettingStrategy.AGRAPA
    clip_fraction: float = 0.75
    max_bet_epsilon: float = 1e-6


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which candidates to test each round.

    epsilon only matters for EPS_GREEDY: probability of testing a uniformly
    random batch instead of the current-wealth leaders.
    """

    policy: AcquisitionPolicy = AcquisitionPolicy.UNIFORM_ALL
    epsilon: float = 0.0
    batch_size: int = 1


@dataclass(frozen=True)
class CalibrationConfig:
    """One run's settings; the batch size is ``acquisition.batch_size``."""

    n_candidates: int
    alpha: float
    delta: float
    direction: Direction
    selection_rule: SelectionRuleName
    acquisition: AcquisitionSpec
    betting: BettingSpec
    t_max: int
    d_stop: int
    seed: int
    literal_set: bool = False
    fixed_sequence_order: tuple[int, ...] | None = None
    extra_metrics: tuple[MetricSpec, ...] = ()

    @property
    def error_metric(self) -> ErrorMetric:
        return ErrorMetric.FWER if self.selection_rule in FWER_RULES else ErrorMetric.FDR


def validate_config(cfg: CalibrationConfig) -> CalibrationConfig:
    """Check every config invariant; raise InvalidConfig listing all failures."""
    bad: list[str] = []
    enums = [
        ("direction", cfg.direction, Direction),
        ("selection_rule", cfg.selection_rule, SelectionRuleName),
        ("acquisition.policy", cfg.acquisition.policy, AcquisitionPolicy),
        ("betting.strategy", cfg.betting.strategy, BettingStrategy),
    ] + [(f"extra_metrics[{k}].direction", m.direction, Direction) for k, m in enumerate(cfg.extra_metrics)]
    for name, value, kind in enums:
        if not isinstance(value, kind):
            bad.append(f"{name} must be a {kind.__name__} member, got {value!r}")
    n = cfg.n_candidates
    if not isinstance(n, int) or n < 1:
        bad.append("n_candidates must be a positive integer")
    if not 0.0 < cfg.alpha < 1.0:
        bad.append("alpha out of (0,1)")
    if not 0.0 < cfg.delta < 1.0:
        bad.append("delta out of (0,1)")
    if cfg.t_max < 1:
        bad.append("t_max must be >= 1")
    if cfg.d_stop < 1:
        bad.append("d_stop must be >= 1")
    elif isinstance(n, int) and n >= 1 and cfg.d_stop > n:
        bad.append("d_stop exceeds n_candidates")
    if not 0 <= cfg.seed < 2**64:
        bad.append("seed out of [0, 2**64)")

    acq = cfg.acquisition
    if acq.batch_size < 1:
        bad.append("batch_size must be >= 1")
    elif isinstance(n, int) and n >= 1 and acq.batch_size > n:
        bad.append("batch_size exceeds n_candidates")
    if acq.policy is AcquisitionPolicy.EPS_GREEDY and not 0.0 <= acq.epsilon <= 1.0:
        bad.append("acquisition epsilon out of [0,1]")

    bet = cfg.betting
    if not 0.0 < bet.clip_fraction <= 1.0:
        bad.append("betting clip_fraction out of (0,1]")
    if not 0.0 < bet.max_bet_epsilon < 1.0:
        bad.append("betting max_bet_epsilon out of (0,1)")
    elif bet.clip_fraction * (1.0 - bet.max_bet_epsilon) >= 1.0:
        bad.append("betting clip must stay strictly below mu_max")

    for k, m in enumerate(cfg.extra_metrics):
        if not 0.0 < m.alpha < 1.0:
            bad.append(f"extra_metrics[{k}].alpha out of (0,1)")

    if cfg.fixed_sequence_order is not None:
        try:
            check_order(cfg.fixed_sequence_order, n if isinstance(n, int) else 0)
        except InvalidOrder as exc:
            bad.append(str(exc))

    if bad:
        raise InvalidConfig(bad)
    return cfg


def check_order(order: tuple[int, ...], n: int) -> None:
    """Raise InvalidOrder unless order is a permutation of range(n)."""
    if len(order) != n or sorted(order) != list(range(n)):
        raise InvalidOrder(f"order must be a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class GroundTruth:
    """True mean risk (or reward) per candidate, for simulation scoring only."""

    true_means: tuple[float, ...]

    def __post_init__(self):
        for m in self.true_means:
            if not 0.0 <= m <= 1.0:
                raise OutOfRange(f"true mean {m!r} out of [0,1]")

    @property
    def n(self) -> int:
        return len(self.true_means)


def reliable_set(gt: GroundTruth, alpha: float, direction: Direction) -> frozenset[int]:
    """Ids whose true mean satisfies the requirement; boundary means count as
    reliable under RISK_BELOW (<= alpha) and unreliable under REWARD_ABOVE
    (> alpha strictly)."""
    if direction is Direction.RISK_BELOW:
        return frozenset(i for i, m in enumerate(gt.true_means) if m <= alpha)
    return frozenset(i for i, m in enumerate(gt.true_means) if m > alpha)
