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
import reprlib
from dataclasses import dataclass

import numpy as np

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


# A field's domain: its type and the noun that names it, the test a value of
# that type passes, and how a value outside reads (after the value, or as a
# function of it and its path).  A number domain refuses an integer too large
# for a float, which float() would round past the largest float (from
# _FLOAT_LIMIT in size on), before its test.
_NUMBERS, _FLOAT_LIMIT = (int, float), 2**1024 - 2**970
UNIT = (_NUMBERS, "a number", lambda v: 0.0 <= v <= 1.0, "out of [0,1]")
OPEN_UNIT = (_NUMBERS, "a number", lambda v: 0.0 < v < 1.0, "out of (0,1)")
CLIP = (_NUMBERS, "a number", lambda v: 0.0 < v <= 1.0, "out of (0,1]")
POSITIVE = (_NUMBERS, "a number", lambda v: 0.0 < v < math.inf, "must be finite and > 0")
COUNT = (int, "an integer", lambda v: v >= 1, "must be >= 1")
SEED = (int, "an integer", lambda v: 0 <= v < 2**64, "out of [0, 2**64)")


def of_type(kind, noun: str) -> tuple:
    """The domain of every value of type kind, which noun names."""
    return (kind, noun, lambda v: True, "")


def member(kind: type[enum.Enum]) -> tuple:
    """The domain of the members of the enum kind."""
    return of_type(kind, f"a {kind.__name__} member")


NUMBER, INTEGER, FLAG = of_type(_NUMBERS, "a number"), of_type(int, "an integer"), of_type(bool, "a boolean")


def argument(domain: tuple) -> tuple:
    """An integer or number domain as a library call's argument meets it,
    where numpy's integers are integers and its floats numbers."""
    return ((int, np.integer) if domain[0] is int else (*_NUMBERS, np.integer, np.floating), *domain[1:])


# A run's seed or trial index: the key its random streams are hashed from.
KEY = argument(SEED)


def optional(domain: tuple) -> tuple:
    """domain, or None."""
    kind, noun, inside, reads = domain
    return ((kind, type(None)), f"{noun} or None", lambda v: v is None or inside(v), reads)


def tuple_of(item: tuple, nonempty: bool = False) -> tuple:
    """The tuples (nonempty ones, with ``nonempty``) of items in the domain item;
    one outside is named by its first item outside and a count of the others.
    Items of a non-numeric of_type domain (reads empty) are tested by class."""
    kind, reads = item[0], item[3]
    whole = not reads and not isinstance(0.0, kind)

    def inside(v: tuple) -> bool:
        return (len(v) > 0 or not nonempty) and whole and all(
            issubclass(c, kind) and issubclass(c, bool) == (kind is bool) for c in set(map(type, v)))

    def outside(v: tuple, path: str) -> str | None:
        if nonempty and not v:
            return f"{path} must be nonempty"
        items = {f"[{j}]": x for j, x in enumerate(v)}
        bad = list(domain_violations(items, dict.fromkeys(items, item), path).values())
        return f"{bad[0]} ({len(bad) - 1} more of {path} outside)" if len(bad) > 1 else next(iter(bad), None)

    return (tuple, "a tuple", inside, outside)


class _Shown(reprlib.Repr):
    """Reprs of bounded length, where an integer past 2**256 is shown by its
    size: Python refuses to print one of more than 4,300 digits."""

    def repr_int(self, x: int, level: int) -> str:
        bits = abs(x).bit_length()
        return repr(x) if bits <= 256 else f"<a {'negative ' * (x < 0)}{bits:,}-bit integer>"


_SHOWN = _Shown()
_SHOWN.maxstring = _SHOWN.maxother = 100
shown = _SHOWN.repr


def domain_violations(values: dict, domains: dict, prefix: str = "") -> dict[str, str]:
    """path -> violation of each value in ``values`` (name -> value, as in a
    spec's vars() or a call's locals()) outside its domain in ``domains``,
    led by its path, prefix + the name.  A bool is only a bool: it is no
    integer or number, as in JSON."""
    bad = {}
    for name, (kind, noun, inside, reads) in domains.items():
        value, path = values[name], prefix + name
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            bad[path] = f"{path} must be {noun}, got {shown(value)}"
        elif isinstance(value, int) and isinstance(0.0, kind) and abs(value) >= _FLOAT_LIMIT:
            bad[path] = f"{path} is an integer too large for a float"
        elif not inside(value):
            message = reads(value, path) if callable(reads) else f"{path} {shown(value)} {reads}"
            if message:
                bad[path] = message
    return bad


def check_domains(values: dict, domains: dict, error: type = InvalidConfig) -> None:
    """Raise error unless each value in ``values`` lies in its domain in ``domains``:
    InvalidConfig with every violation, or another error with the one value's."""
    if bad := domain_violations(values, domains):
        raise error(list(bad.values())) if error is InvalidConfig else error(*bad.values())


def trial_keys(trials) -> np.ndarray:
    """trials as a uint64 array, once each is a KEY (InvalidConfig names the
    first that is not)."""
    items = trials.tolist() if isinstance(trials, np.ndarray) else trials
    check_domains({"trials": tuple(items) if isinstance(items, (list, range)) else items}, {"trials": tuple_of(KEY)})
    return np.asarray(trials, dtype=np.uint64)


# The shape of each config field that holds others, checked before anything
# in it is read, and the domain of every other field of a config and of the
# specs it holds; an acquisition's epsilon is a rate only under eps-greedy.
_SHAPES = {"acquisition": of_type(AcquisitionSpec, "an AcquisitionSpec"),
           "betting": of_type(BettingSpec, "a BettingSpec"),
           "extra_metrics": tuple_of(of_type(MetricSpec, "a MetricSpec"))}
_CONFIG = {"n_candidates": COUNT, "alpha": OPEN_UNIT, "delta": OPEN_UNIT, "direction": member(Direction),
           "selection_rule": member(SelectionRuleName), "t_max": COUNT, "d_stop": COUNT, "seed": SEED,
           "fixed_sequence_order": optional(tuple_of(INTEGER))}
_BETTING = {"strategy": member(BettingStrategy), "clip_fraction": CLIP, "max_bet_epsilon": OPEN_UNIT}
_METRIC = {"alpha": OPEN_UNIT, "direction": member(Direction)}


def validate_config(cfg: CalibrationConfig) -> CalibrationConfig:
    """Check every config invariant; raise InvalidConfig listing all failures:
    of the shapes of the fields that hold others first, then of every field's
    domain and of each check across fields."""
    check_domains(vars(cfg), _SHAPES)
    acq, bet, n, order = cfg.acquisition, cfg.betting, cfg.n_candidates, cfg.fixed_sequence_order
    metrics = cfg.extra_metrics
    epsilon = UNIT if acq.policy is AcquisitionPolicy.EPS_GREEDY else NUMBER
    bad = domain_violations(vars(cfg), _CONFIG)
    bad |= domain_violations(vars(acq), {"policy": member(AcquisitionPolicy), "epsilon": epsilon, "batch_size": COUNT},
                             "acquisition.")
    bad |= domain_violations(vars(bet), _BETTING, "betting.")
    for k, m in enumerate(metrics):
        bad |= domain_violations(vars(m), _METRIC, f"extra_metrics[{k}].")
    # Each check across fields runs once its own fields are in their domains.
    out = list(bad.values())
    if "n_candidates" not in bad:
        most = MAX_CANDIDATES // (1 + len(metrics))
        if n > most:
            out.append(f"n_candidates must be <= {most}, got {shown(n)}")
        if "d_stop" not in bad and cfg.d_stop > n:
            out.append("d_stop exceeds n_candidates")
        if "acquisition.batch_size" not in bad and acq.batch_size > n:
            out.append("acquisition.batch_size exceeds n_candidates")
        if order is not None and "fixed_sequence_order" not in bad:
            try:
                check_order(order, n)
            except InvalidOrder as exc:
                out.append(str(exc))
    clip = ("betting.clip_fraction", "betting.max_bet_epsilon")
    if bad.keys().isdisjoint(clip) and bet.clip_fraction * (1.0 - bet.max_bet_epsilon) >= 1.0:
        out.append("betting.clip_fraction * (1 - betting.max_bet_epsilon) must be < 1: the clip stays below mu_max")
    if out:
        raise InvalidConfig(out)
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
        check_domains(vars(self), {"true_means": tuple_of(UNIT)}, OutOfRange)

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
