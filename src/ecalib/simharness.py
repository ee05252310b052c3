"""Synthetic risk sources with known ground truth, and Monte Carlo scoring.

Sampling is inverse-CDF on keyed uniforms (one stream per (seed, trial,
round, id, metric)), so trials replay identically no matter how they are
scheduled.  ``shared_draw`` pushes one latent uniform per round through every
id's inverse CDF, which makes a round's risks perfectly dependent.

run_trials estimates the error-rate metrics over M independent trials:
family-wise error as the fraction of trials whose final certified set touches
the unreliable set, false-discovery both conditional on a nonempty selection
and unconditional (empty set counts as zero), and true-positive rate as the
mean certified fraction of the reliable set.  Reduction over trials is fixed
by trial index, so parallel and sequential execution agree exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import betainc, betaincinv

from .betting import ONS_STEP, BettingState, bet_cap, next_bet
from .core import (
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    GroundTruth,
    reliable_set,
)
from .eprocess import bet_bound, quantile_transform
from .errors import InvalidConfig, NoReliableArm
from .orchestrator import RunResult, run_altt
from .rng import (
    TAG_RISK,
    TAG_SHARED,
    mix64,
    mix64_from,
    unit_uniform,
    unit_uniform_from,
    unit_uniform_np,
)


@dataclass(frozen=True)
class Bernoulli:
    p: float

    @property
    def mean(self) -> float:
        return self.p

    def draw(self, u: float) -> float:
        return 1.0 if u >= 1.0 - self.p else 0.0

    def cdf_at(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x < 1.0:
            return 1.0 - self.p
        return 1.0


@dataclass(frozen=True)
class Beta:
    a: float
    b: float

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def draw(self, u: float) -> float:
        return float(betaincinv(self.a, self.b, u))

    def cdf_at(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return float(betainc(self.a, self.b, x))


@dataclass(frozen=True)
class PointMass:
    value: float

    @property
    def mean(self) -> float:
        return self.value

    def draw(self, u: float) -> float:
        return self.value

    def cdf_at(self, x: float) -> float:
        return 1.0 if self.value <= x else 0.0


Distribution = Union[Bernoulli, Beta, PointMass]


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-id risk distributions, optionally coupled and/or quantile-reduced.

    With quantile_threshold set, the source emits the indicator
    1[raw <= threshold]; means() then reports the indicator means (the CDF at
    the threshold), which is what the transformed config's alpha refers to.
    """

    arms: tuple[Distribution, ...]
    shared_draw: bool = False
    quantile_threshold: float | None = None

    @property
    def n(self) -> int:
        return len(self.arms)

    def means(self) -> tuple[float, ...]:
        if self.quantile_threshold is None:
            return tuple(arm.mean for arm in self.arms)
        thr = self.quantile_threshold
        return tuple(arm.cdf_at(thr) for arm in self.arms)

    def make_source(self, base_seed: int, trial: int) -> "SyntheticSource":
        return SyntheticSource(self, base_seed, trial)


def sample_risk(
    spec: SyntheticSpec, id: int, round_index: int, base_seed: int, trial: int = 0
) -> float:
    """One draw for (id, round), on the stream keyed by (seed, trial, round, id)."""
    if spec.shared_draw:
        u = unit_uniform(TAG_SHARED, base_seed, trial, round_index, 0)
    else:
        u = unit_uniform(TAG_RISK, base_seed, trial, round_index, id, 0)
    raw = spec.arms[id].draw(u)
    if spec.quantile_threshold is None:
        return raw
    return float(quantile_transform(raw, spec.quantile_threshold))


class SyntheticSource:
    """RiskSource over a SyntheticSpec, bound to one (base_seed, trial).

    Draws the same risks as ``sample_risk``: the (tag, seed, trial) key
    prefix is hashed once here, so each draw folds only (round, id, metric).
    ``metric`` is the index of this spec within a composite, 0 otherwise.
    """

    reads_token = False

    def __init__(self, spec: SyntheticSpec, base_seed: int, trial: int, metric: int = 0):
        self.spec = spec
        self._metric = metric
        tag = TAG_SHARED if spec.shared_draw else TAG_RISK
        self._prefix = mix64(tag, base_seed, trial)

    def query(self, round_index: int, ids: Sequence[int], token: str) -> list[float]:
        spec = self.spec
        arms = spec.arms
        k = self._metric
        if spec.shared_draw:
            u = unit_uniform_from(self._prefix, round_index, k)
            raws = [arms[i].draw(u) for i in ids]
        else:
            prefix = mix64_from(self._prefix, round_index)
            raws = [arms[i].draw(unit_uniform_from(prefix, i, k)) for i in ids]
        thr = spec.quantile_threshold
        if thr is None:
            return raws
        return [float(quantile_transform(raw, thr)) for raw in raws]


@dataclass(frozen=True)
class CompositeSyntheticSpec:
    """One SyntheticSpec per metric; sources emit K-vectors per id."""

    metrics: tuple[SyntheticSpec, ...]

    def __post_init__(self):
        sizes = {m.n for m in self.metrics}
        if len(self.metrics) < 1 or len(sizes) != 1:
            raise InvalidConfig(["composite metrics must be nonempty and equally sized"])

    @property
    def n(self) -> int:
        return self.metrics[0].n

    def make_source(self, base_seed: int, trial: int) -> "CompositeSyntheticSource":
        return CompositeSyntheticSource(self, base_seed, trial)


class CompositeSyntheticSource:
    """One SyntheticSource per metric; each id gets the K-tuple of their draws."""

    reads_token = False

    def __init__(self, spec: CompositeSyntheticSpec, base_seed: int, trial: int):
        self._sources = [
            SyntheticSource(m, base_seed, trial, k) for k, m in enumerate(spec.metrics)
        ]

    def query(self, round_index: int, ids: Sequence[int], token: str) -> list[tuple[float, ...]]:
        return list(zip(*(s.query(round_index, ids, token) for s in self._sources)))


def derive_reliable(cfg: CalibrationConfig, spec) -> frozenset[int]:
    """Ground-truth reliable set implied by the spec's means and the config's
    requirement(s); composite candidates must conform on every metric."""
    if isinstance(spec, CompositeSyntheticSpec):
        reqs = [(cfg.alpha, cfg.direction)] + [(m.alpha, m.direction) for m in cfg.extra_metrics]
        if len(reqs) != len(spec.metrics):
            raise InvalidConfig(["composite spec metric count disagrees with config"])
        out = frozenset(range(spec.n))
        for (alpha, direction), mspec in zip(reqs, spec.metrics):
            out &= reliable_set(GroundTruth(mspec.means()), alpha, direction)
        return out
    return reliable_set(GroundTruth(spec.means()), cfg.alpha, cfg.direction)


@dataclass
class MetricsSummary:
    fwer_hat: float
    fdr_hat_conditional: float
    fdr_hat_unconditional: float
    tpr_hat: float
    mean_stop_round: float
    mean_queries: float
    M: int
    margins: dict[str, float]
    tpr_curve: tuple[float, ...]
    fwer_curve: tuple[float, ...]
    fdr_curve: tuple[float, ...]
    set_size_curve: tuple[float, ...]
    stop_reason_counts: dict[str, int]
    tpr_trials: tuple[float, ...]


def _make_hook(rel_hits, unrel_hits, sizes, reliable: frozenset[int], unreliable: frozenset[int]):
    def hook(t: int, tested, selected: frozenset[int]) -> None:
        idx = t - 1
        rel_hits[idx] = len(selected & reliable)
        unrel_hits[idx] = len(selected & unreliable)
        sizes[idx] = len(selected)

    return hook


class TrialAccumulator:
    """Streams per-trial outcomes into the summary statistics in trial order."""

    def __init__(self, reliable: frozenset[int], n_candidates: int, horizon: int):
        self.reliable = reliable
        self.unreliable = frozenset(range(n_candidates)) - reliable
        self.horizon = horizon
        self.m = 0
        self.n_any_false = 0
        self.n_nonempty = 0
        self.sum_fdp = 0.0
        self.sum_tp = 0.0
        self.sum_tp_sq = 0.0
        self.tp_trials: list[float] = []
        self.sum_T = 0
        self.sum_queries = 0
        self.stop_counts: dict[str, int] = {}
        self.sum_rel_hits = np.zeros(horizon, dtype=np.float64)
        self.sum_false_flag = np.zeros(horizon, dtype=np.float64)
        self.sum_fdp_curve = np.zeros(horizon, dtype=np.float64)
        self.sum_size = np.zeros(horizon, dtype=np.float64)

    def add(self, result: RunResult, rel_hits, unrel_hits, sizes) -> None:
        # Pad past the stopping round with the final set: the certificate is
        # whatever the run returned, held fixed for the rest of the horizon.
        T = result.T
        if T < self.horizon:
            rel_hits[T:] = len(result.selected & self.reliable)
            unrel_hits[T:] = len(result.selected & self.unreliable)
            sizes[T:] = len(result.selected)
        self.m += 1
        n_false = len(result.selected & self.unreliable)
        n_sel = len(result.selected)
        if n_false:
            self.n_any_false += 1
        if n_sel:
            self.n_nonempty += 1
            self.sum_fdp += n_false / n_sel
        if self.reliable:
            tp = len(result.selected & self.reliable) / len(self.reliable)
            self.sum_tp += tp
            self.sum_tp_sq += tp * tp
            self.tp_trials.append(tp)
        self.sum_T += T
        self.sum_queries += result.n_queries
        key = result.stop_reason.value
        self.stop_counts[key] = self.stop_counts.get(key, 0) + 1
        self.sum_rel_hits += rel_hits
        self.sum_false_flag += unrel_hits > 0
        fdp_curve = np.zeros(self.horizon)
        np.divide(unrel_hits, sizes, out=fdp_curve, where=sizes > 0)
        self.sum_fdp_curve += fdp_curve
        self.sum_size += sizes

    def summary(self, compute_tpr: bool) -> MetricsSummary:
        m = self.m
        fwer = self.n_any_false / m
        fdr_u = self.sum_fdp / m
        fdr_c = self.sum_fdp / self.n_nonempty if self.n_nonempty else math.nan
        if compute_tpr and self.reliable:
            tpr = self.sum_tp / m
            tpr_var = max(0.0, self.sum_tp_sq / m - tpr * tpr)
            tpr_margin = 3.0 * math.sqrt(tpr_var / m)
        else:
            tpr, tpr_margin = math.nan, math.nan
        margins = {
            "fwer": 3.0 * math.sqrt(fwer * (1.0 - fwer) / m),
            "fdr_unconditional": 3.0 * math.sqrt(max(0.0, fdr_u * (1.0 - fdr_u)) / m),
            "tpr": tpr_margin,
        }
        n_rel = len(self.reliable)
        tpr_curve = (
            tuple(self.sum_rel_hits / (m * n_rel)) if n_rel else tuple(math.nan for _ in range(self.horizon))
        )
        return MetricsSummary(
            fwer_hat=fwer,
            fdr_hat_conditional=fdr_c,
            fdr_hat_unconditional=fdr_u,
            tpr_hat=tpr,
            mean_stop_round=self.sum_T / m,
            mean_queries=self.sum_queries / m,
            M=m,
            margins=margins,
            tpr_curve=tpr_curve,
            fwer_curve=tuple(self.sum_false_flag / m),
            fdr_curve=tuple(self.sum_fdp_curve / m),
            set_size_curve=tuple(self.sum_size / m),
            stop_reason_counts=dict(self.stop_counts),
            tpr_trials=tuple(self.tp_trials),
        )


def _one_trial(args) -> tuple[int, RunResult, np.ndarray, np.ndarray, np.ndarray]:
    cfg, spec, base_seed, trial, reliable = args
    unreliable = frozenset(range(cfg.n_candidates)) - reliable
    rel_hits, unrel_hits, sizes = (np.zeros(cfg.t_max, dtype=np.int32) for _ in range(3))
    hook = _make_hook(rel_hits, unrel_hits, sizes, reliable, unreliable)
    source = spec.make_source(base_seed, trial)
    result = run_altt(cfg, source, trial=trial, record_rounds=False, round_hook=hook)
    # Drop the heavyweight fields before results cross a process boundary.
    slim = RunResult(
        result.selected, result.T, result.stop_reason, (), (), (), result.n_queries
    )
    return trial, slim, rel_hits, unrel_hits, sizes


def run_trials(
    cfg: CalibrationConfig,
    spec,
    M: int = 1,
    base_seed: int = 0,
    *,
    reliable: frozenset[int] | None = None,
    workers: int = 1,
    compute_tpr: bool = True,
) -> MetricsSummary:
    """M independent adaptive runs, scored against ground truth.

    ``reliable`` overrides the derived reliable set for instances where the
    requirement does not reduce to cfg.alpha on spec.means().
    """
    if M < 1:
        raise InvalidConfig(["M must be >= 1"])
    if workers < 1:
        raise InvalidConfig([f"workers must be >= 1, got {workers}"])
    if reliable is None:
        reliable = derive_reliable(cfg, spec)
    if compute_tpr and not reliable:
        raise NoReliableArm("no reliable candidate: TPR undefined")

    acc = TrialAccumulator(reliable, cfg.n_candidates, cfg.t_max)
    tasks = [(cfg, spec, base_seed, trial, reliable) for trial in range(M)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for _, result, rel_hits, unrel_hits, sizes in pool.map(
                _one_trial, tasks, chunksize=max(1, M // (workers * 4))
            ):
                acc.add(result, rel_hits, unrel_hits, sizes)
    else:
        for task in tasks:
            _, result, rel_hits, unrel_hits, sizes = _one_trial(task)
            acc.add(result, rel_hits, unrel_hits, sizes)
    return acc.summary(compute_tpr)


# Vectorized single-arm Monte Carlo.  The acceptance suite first cross-checks
# this lane trajectory-for-trajectory against run_altt/run_ltt on a handful of
# trials, then uses it for the 10^4-trial sweeps that would take minutes
# round-by-round.  Stream keys match SyntheticSource exactly: uniform for
# (trial, round) is unit_uniform(TAG_RISK, seed, trial, round, 0, 0).


def single_arm_mc(
    mean: float,
    alpha: float,
    direction: Direction,
    betting: BettingSpec,
    n_rounds: int,
    n_trials: int,
    base_seed: int,
    *,
    keep_paths: bool = False,
) -> dict[str, np.ndarray]:
    """Bernoulli(mean) arm tested every round; returns log-wealth statistics.

    Output arrays over trials: ``final_log_wealth``, ``max_log_wealth``;
    with keep_paths, also ``log_wealth_paths`` of shape (trials, rounds).
    """
    bound = bet_bound(alpha, direction)
    cap = bet_cap(betting, bound)
    strategy = betting.strategy
    trials = np.arange(n_trials, dtype=np.uint64)
    log_w = np.zeros(n_trials)
    max_log_w = np.zeros(n_trials)
    sum_g = np.zeros(n_trials)
    ssd = np.zeros(n_trials)
    ons_mu = np.zeros(n_trials)
    ons_a = np.ones(n_trials)
    paths = np.zeros((n_trials, n_rounds)) if keep_paths else None
    # UNIT and MAX bet a constant; the scalar rule gives it.
    constant_mu = next_bet(betting, BettingState(), bound)

    for t in range(1, n_rounds + 1):
        u = unit_uniform_np([TAG_RISK, base_seed, trials, t, 0, 0])
        risk = (u >= 1.0 - mean).astype(np.float64)
        if direction is Direction.RISK_BELOW:
            g = alpha - risk
        else:
            g = risk - alpha
        if strategy in (BettingStrategy.UNIT, BettingStrategy.MAX):
            mu = constant_mu
        elif strategy is BettingStrategy.AGRAPA:
            m_reg = (0.5 + sum_g) / t
            v_reg = (0.25 + ssd) / t
            mu = np.clip(m_reg / (v_reg + m_reg * m_reg), 0.0, cap)
        else:  # ONS
            mu = ons_mu.copy()

        x = np.maximum(mu * g, -1.0)
        log_w = log_w + np.log1p(x)
        np.maximum(max_log_w, log_w, out=max_log_w)
        if paths is not None:
            paths[:, t - 1] = log_w

        # observe(): same recursions as the scalar path.
        mean_before = (0.5 + sum_g) / t
        dev = g - mean_before
        ssd = ssd + dev * dev
        sum_g = sum_g + g
        if strategy is BettingStrategy.ONS:
            denom = 1.0 + mu * g
            z = -g / denom
            ons_a = ons_a + z * z
            ons_mu = np.clip(ons_mu - ONS_STEP * z / ons_a, 0.0, cap)

    out = {"final_log_wealth": log_w, "max_log_wealth": max_log_w}
    if paths is not None:
        out["log_wealth_paths"] = paths
    return out
