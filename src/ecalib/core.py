"""Domain types for sequential candidate certification.

A calibration run tests N candidate configurations (ids 0..N-1) against a
risk requirement: under ``RISK_BELOW`` a candidate is reliable when its mean
risk is at most ``alpha``; under ``REWARD_ABOVE`` when its mean reward
exceeds ``alpha``.  Everything downstream (payoffs, bet bounds, ground-truth
reliable sets) derives from that convention.
"""

from __future__ import annotations

import enum
import math
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
    fixed_sequence_order: tuple[int, ...] | None = None
    extra_metrics: tuple[MetricSpec, ...] = ()

    @property
    def error_metric(self) -> ErrorMetric:
        return ErrorMetric.FWER if self.selection_rule in FWER_RULES else ErrorMetric.FDR

    @property
    def requirements(self) -> tuple[tuple[float, Direction], ...]:
        """The K (alpha, direction) requirements a certified candidate meets:
        the config's own, then one per extra metric."""
        return ((self.alpha, self.direction), *((m.alpha, m.direction) for m in self.extra_metrics))


# The most candidates a config may claim at one metric, and 1/K of it at K
# metrics: what a run keeps per candidate and metric stays within 1 GiB.
# tracemalloc measured 296-360 B per candidate in one-metric run_altt runs
# (the engine state, the per-id layout's lists, acquisition and selection)
# and 216-304 B per candidate and metric at two metrics; 400 B are counted.
MAX_CANDIDATES = 2**30 // 400


def _is_a(value, kind) -> bool:
    """isinstance(value, kind), except that a bool is only a bool: it is no
    integer or number, as in JSON."""
    return isinstance(value, bool) == (kind is bool) and isinstance(value, kind)


def _type_errors(typed) -> list[str]:
    """The violation of each (name, value, type, noun) whose value is not of
    its type, the noun naming the type."""
    return [f"{name} must be {noun}, got {value!r}" for name, value, kind, noun in typed if not _is_a(value, kind)]


# A field's domain: its type and the noun that names it, the test a value of
# that type passes, and how a value outside reads.
UNIT = ((int, float), "a number", lambda v: 0.0 <= v <= 1.0, "out of [0,1]")
POSITIVE = ((int, float), "a number", lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0")
FLAG = (bool, "a boolean", lambda v: True, "")


def check_domains(spec, domains: dict) -> None:
    """InvalidConfig listing each field of spec, in ``domains`` (field name ->
    domain), that is not of its domain's type or lies outside the domain;
    each violation is led by the name."""
    bad = []
    for name, (kind, noun, inside, reads) in domains.items():
        value = getattr(spec, name)
        if not _is_a(value, kind):
            bad += _type_errors([(name, value, kind, noun)])
        elif not inside(value):
            bad.append(f"{name} {value!r} {reads}")
    if bad:
        raise InvalidConfig(bad)


def validate_config(cfg: CalibrationConfig) -> CalibrationConfig:
    """Check every config invariant; raise InvalidConfig listing all failures:
    of the shapes of the fields that hold others first, then of the fields'
    types, then, if every type is right, of the rest."""
    acq, bet, metrics = cfg.acquisition, cfg.betting, cfg.extra_metrics
    # (name, value, type, noun) of each field; a holder's fields are read
    # only once every holder has its shape.
    shapes = [("acquisition", acq, AcquisitionSpec, "an AcquisitionSpec"),
              ("betting", bet, BettingSpec, "a BettingSpec"),
              ("extra_metrics", metrics, tuple, "a tuple"),
              ("fixed_sequence_order", cfg.fixed_sequence_order, (tuple, type(None)), "a tuple or None")]
    shapes += [(f"extra_metrics[{k}]", m, MetricSpec, "a MetricSpec")
               for k, m in enumerate(metrics if isinstance(metrics, tuple) else ())]
    bad = _type_errors(shapes)
    if bad:
        raise InvalidConfig(bad)
    enums = [
        ("direction", cfg.direction, Direction),
        ("selection_rule", cfg.selection_rule, SelectionRuleName),
        ("acquisition.policy", acq.policy, AcquisitionPolicy),
        ("betting.strategy", bet.strategy, BettingStrategy),
    ] + [(f"extra_metrics[{k}].direction", m.direction, Direction) for k, m in enumerate(metrics)]
    typed = [(name, value, kind, f"a {kind.__name__} member") for name, value, kind in enums]
    typed += [(name, getattr(cfg, name), int, "an integer") for name in ("n_candidates", "t_max", "d_stop", "seed")]
    typed += [("batch_size", acq.batch_size, int, "an integer")]
    typed += [(f"fixed_sequence_order[{j}]", v, int, "an integer") for j, v in enumerate(cfg.fixed_sequence_order or ())]
    typed += [(name, getattr(cfg, name), (int, float), "a number") for name in ("alpha", "delta")]
    typed += [("acquisition.epsilon", acq.epsilon, (int, float), "a number")]
    typed += [(f"betting.{name}", getattr(bet, name), (int, float), "a number")
              for name in ("clip_fraction", "max_bet_epsilon")]
    typed += [(f"extra_metrics[{k}].alpha", m.alpha, (int, float), "a number") for k, m in enumerate(metrics)]
    bad = _type_errors(typed)
    if bad:
        raise InvalidConfig(bad)

    n = cfg.n_candidates
    most = MAX_CANDIDATES // (1 + len(cfg.extra_metrics))
    if n < 1:
        bad.append("n_candidates must be a positive integer")
    elif n > most:
        bad.append(f"n_candidates must be <= {most}, got {n}")
    if not 0.0 < cfg.alpha < 1.0:
        bad.append("alpha out of (0,1)")
    if not 0.0 < cfg.delta < 1.0:
        bad.append("delta out of (0,1)")
    if cfg.t_max < 1:
        bad.append("t_max must be >= 1")
    if cfg.d_stop < 1:
        bad.append("d_stop must be >= 1")
    elif n >= 1 and cfg.d_stop > n:
        bad.append("d_stop exceeds n_candidates")
    if not 0 <= cfg.seed < 2**64:
        bad.append("seed out of [0, 2**64)")

    if acq.batch_size < 1:
        bad.append("batch_size must be >= 1")
    elif n >= 1 and acq.batch_size > n:
        bad.append("batch_size exceeds n_candidates")
    if acq.policy is AcquisitionPolicy.EPS_GREEDY and not 0.0 <= acq.epsilon <= 1.0:
        bad.append("acquisition epsilon out of [0,1]")

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
            check_order(cfg.fixed_sequence_order, n)
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
