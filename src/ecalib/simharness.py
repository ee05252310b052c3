"""Synthetic risk sources with known ground truth, and Monte Carlo scoring.

Sampling is inverse-CDF on keyed uniforms (one stream per (seed, trial,
round, id, metric)), so trials replay identically no matter how they are
scheduled.  ``shared_draw`` pushes one latent uniform per round through every
id's inverse CDF, which makes a round's risks perfectly dependent.  Each
distribution family has one array sampler, ``sample``; ``SyntheticSpec.draw``
applies it to a whole round's ids.  ``SyntheticBlock`` draws the keyed risks
of a block of trials, and ``SyntheticSource`` is the block over one trial;
``sample_risk``, one key hashed in scalar Python, is their reference.

run_trials estimates the error-rate metrics over M independent trials:
family-wise error as the fraction of trials whose final certified set touches
the unreliable set, false-discovery both conditional on a nonempty selection
and unconditional (empty set counts as zero), and true-positive rate as the
mean certified fraction of the reliable set.  Trials run in lock-step on the
trial-batched engine (``orchestrator.run_block``), in contiguous blocks, one
or more per process that runs them.  A trial's curves count its reliable hits
and set size each round; each set change is written through to t_max when it
happens, so the final set holds to the end.  A trial's outcome and curves
equal its own ``run_altt`` run's bit for bit, and reduction over
trials is fixed by trial index, so any block split and any worker count give
the same bytes.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .core import COUNT, FLAG, KEY, POSITIVE, UNIT, CalibrationConfig, GroundTruth, argument, check_domains, of_type
from .core import optional, reliable_set, shown, trial_keys, tuple_of, validate_config
from .eprocess import quantile_transform
from .errors import InvalidConfig
from .orchestrator import RunResult, run_altt, run_block
from .rng import TAG_RISK, TAG_SHARED, unit_uniform
from .rng_np import mix64_from_np, mix64_np, unit_uniform_from_np


# Each family's ``sample(u, *params)`` is its inverse CDF over arrays, with
# the dataclass fields as parameters.
# Beta imports scipy.special where it calls it, so a run without a Beta arm
# never loads scipy.


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        check_domains(vars(self), {"p": UNIT})

    @property
    def mean(self) -> float:
        return self.p

    @staticmethod
    def sample(u, p):
        return np.where(u >= 1.0 - p, 1.0, 0.0)

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

    def __post_init__(self):
        check_domains(vars(self), {"a": POSITIVE, "b": POSITIVE})

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @staticmethod
    def sample(u, a, b):
        from scipy.special import betaincinv

        return betaincinv(a, b, u)

    def cdf_at(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        from scipy.special import betainc

        return float(betainc(self.a, self.b, x))


@dataclass(frozen=True)
class PointMass:
    value: float

    def __post_init__(self):
        check_domains(vars(self), {"value": UNIT})

    @property
    def mean(self) -> float:
        return self.value

    @staticmethod
    def sample(u, value):
        return np.broadcast_to(np.asarray(value, dtype=np.float64), np.shape(u))

    def cdf_at(self, x: float) -> float:
        return 1.0 if self.value <= x else 0.0


Distribution = Union[Bernoulli, Beta, PointMass]
_FAMILIES = (Bernoulli, Beta, PointMass)
_SPEC = {"arms": tuple_of(of_type(_FAMILIES, "a Bernoulli, Beta or PointMass"), nonempty=True),
         "shared_draw": FLAG, "quantile_threshold": optional(UNIT)}


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

    def __post_init__(self):
        check_domains(vars(self), _SPEC)

    @property
    def n(self) -> int:
        return len(self.arms)

    def means(self) -> tuple[float, ...]:
        if self.quantile_threshold is None:
            return tuple(arm.mean for arm in self.arms)
        thr = self.quantile_threshold
        return tuple(arm.cdf_at(thr) for arm in self.arms)

    @cached_property
    def _families(self) -> list:
        """(sampler, member mask, parameter arrays) of each family present."""
        out = []
        for family in _FAMILIES:
            members = np.array([isinstance(arm, family) for arm in self.arms])
            if members.any():
                params = tuple(
                    np.array([getattr(arm, f.name) if member else 0.0
                              for arm, member in zip(self.arms, members)], dtype=np.float64)
                    for f in fields(family)
                )
                out.append((family.sample, members, params))
        return out

    def draw(self, ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The risk of each id in ``ids`` at its uniform in ``u``."""
        families = self._families
        raws = np.empty(len(ids), dtype=np.float64)
        for sample, members, params in families:
            on = members[ids] if len(families) > 1 else slice(None)  # a lone family has every id
            raws[on] = sample(u[on], *(p[ids[on]] for p in params))
        if self.quantile_threshold is None:
            return raws
        return quantile_transform(raws, self.quantile_threshold).astype(np.float64)

    @property
    def metrics(self) -> tuple["SyntheticSpec", ...]:
        """The one metric this spec draws."""
        return (self,)

    def make_source(self, base_seed: int, trial: int) -> "SyntheticSource":
        return SyntheticSource(self.metrics, base_seed, trial)

    def make_block(self, base_seed: int, trials: np.ndarray) -> "SyntheticBlock":
        return SyntheticBlock(self.metrics, base_seed, trials)


def sample_risk(
    spec: SyntheticSpec, id: int, round_index: int, base_seed: int, trial: int = 0
) -> float:
    """One draw for (id, round), on the stream keyed by (seed, trial, round, id)."""
    if spec.shared_draw:
        u = unit_uniform(TAG_SHARED, base_seed, trial, round_index, 0)
    else:
        u = unit_uniform(TAG_RISK, base_seed, trial, round_index, id, 0)
    return float(spec.draw(np.array([id]), np.array([u]))[0])


class SyntheticSource:
    """RiskSource over K metric specs, bound to one (base_seed, trial): the
    SyntheticBlock over that one trial, so both engines draw their risks in
    one place.  Metric 0 draws what ``sample_risk`` draws.  A query returns
    one float per id for K = 1, one K-tuple otherwise.
    """

    reads_token = False

    def __init__(self, metrics: tuple[SyntheticSpec, ...], base_seed: int, trial: int):
        check_domains(locals(), {"trial": KEY})  # the block checks base_seed
        self._block = SyntheticBlock(metrics, base_seed, [trial])

    def query(self, round_index: int, ids: Sequence[int], token: str) -> list:
        ids = np.asarray(ids, dtype=np.intp)
        risks = self._block.query(round_index, np.zeros(len(ids), dtype=np.intp), ids)
        return risks[:, 0].tolist() if risks.shape[1] == 1 else list(map(tuple, risks.tolist()))


# Rounds of (trial, round) keys a SyntheticBlock hashes in one array pass;
# the engine's chunk (orchestrator.CHUNK_ROUNDS) need not match it.
KEY_ROUNDS = 64


class SyntheticBlock:
    """The keyed risks of K metric specs, for a block of trials at once.

    Metric k of id i in round t of trial m is drawn on the stream keyed by
    (tag, seed, m, t, i, k), or (tag, seed, m, t, k) under a shared draw.
    ``query(t, rows, ids)`` returns the round-t risks of id ids[j] in trial
    trials[rows[j]] as row j of a (P, K) array, column k holding metric k.
    The (trial, round) keys do not depend on what is queried, so a query in
    a round outside the last chunk hashes every trial's keys for a chunk of
    KEY_ROUNDS rounds from it.
    """

    def __init__(self, metrics: tuple[SyntheticSpec, ...], base_seed: int, trials: np.ndarray):
        check_domains(locals(), {"base_seed": KEY})
        self.metrics = metrics
        trials = trial_keys(trials)
        self._prefixes = [mix64_np([TAG_SHARED if m.shared_draw else TAG_RISK, base_seed, trials]) for m in metrics]
        self._rounds, self._keys = range(0), []

    def query(self, round_index: int, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        if round_index not in self._rounds:
            self._hash_chunk(round_index)
        c = round_index - self._rounds.start
        risks = np.empty((len(ids), len(self.metrics)))
        for k, (spec, keys) in enumerate(zip(self.metrics, self._keys)):
            if spec.shared_draw:
                u = keys[c, rows]
            else:
                u = unit_uniform_from_np(keys[c, rows], ids, k)
            risks[:, k] = spec.draw(ids, u)
        return risks

    def _hash_chunk(self, round_index: int) -> None:
        """Hash the chunk from ``round_index``, laid out (round, trial): per
        metric the (trial, round) keys, or under a shared draw the round's
        uniform itself."""
        self._rounds = range(round_index, round_index + KEY_ROUNDS)
        rounds = np.array(self._rounds, dtype=np.uint64)[:, None]
        self._keys = [
            unit_uniform_from_np(mix64_from_np(prefix, rounds), k) if spec.shared_draw
            else mix64_from_np(prefix, rounds)
            for k, (spec, prefix) in enumerate(zip(self.metrics, self._prefixes))
        ]


@dataclass(frozen=True)
class CompositeSyntheticSpec:
    """One SyntheticSpec per metric; sources emit K-vectors per id."""

    metrics: tuple[SyntheticSpec, ...]

    def __post_init__(self):
        check_domains(vars(self), {"metrics": tuple_of(of_type(SyntheticSpec, "a SyntheticSpec"))})
        if len({m.n for m in self.metrics}) != 1:
            raise InvalidConfig(["metrics must be nonempty and equally sized"])

    @property
    def n(self) -> int:
        return self.metrics[0].n

    make_source = SyntheticSpec.make_source
    make_block = SyntheticSpec.make_block


def source_violations(cfg: CalibrationConfig, spec) -> list[str]:
    """The violations of a synthetic spec whose arm or metric count is not
    the config's: its risks could not answer the config's queries."""
    bad = []
    if spec.n != cfg.n_candidates:
        bad.append("source arm count disagrees with n_candidates")
    if len(spec.metrics) != len(cfg.requirements):
        bad.append("source metric count disagrees with config")
    return bad


def derive_reliable(cfg: CalibrationConfig, spec) -> frozenset[int]:
    """Ground-truth reliable set implied by the spec's means and the config's
    requirement(s); composite candidates must conform on every metric."""
    if bad := source_violations(cfg, spec):
        raise InvalidConfig(bad)
    out = frozenset(range(spec.n))
    for (alpha, direction), mspec in zip(cfg.requirements, spec.metrics):
        out &= reliable_set(GroundTruth(mspec.means()), alpha, direction)
    return out


# Trials per block; a block's two curves hold 2 * BLOCK_TRIALS * t_max counts.
BLOCK_TRIALS = 512

# The most (trial, candidate) pairs a block holds at one metric, and 1/K of
# them at K metrics: its engine state stays within 1 GiB.  tracemalloc
# measured 164 B per pair on 2,000 Bernoulli arms (e-BH, batch 50) and
# 212 B per pair at two metrics; 200 B per pair and metric are counted.
BLOCK_PAIRS = 2**30 // 200

# The largest t_max that run_trials accepts: a full block's two curves,
# 2 * BLOCK_TRIALS * t_max counts, stay below 2**31 with a third to spare.
MAX_T_MAX = (2**31 - 1) // (3 * BLOCK_TRIALS)


# The largest M that run_trials accepts: what it holds per trial past the
# block that runs it stays within 1 GiB.  That is the trial's TPR, a float in
# the accumulator's list and then in the summary's tuple; tracemalloc
# measured 33-37 B per trial from M = 4,096 to 65,536, and 40 B are counted.
MAX_TRIALS = 2**30 // 40
TRIALS = (int, "an integer", lambda v: 1 <= v <= MAX_TRIALS, f"out of [1, {MAX_TRIALS}]")


def check_t_max(t_max: int) -> None:
    """InvalidConfig for a t_max above MAX_T_MAX, which the Monte Carlo
    arrays cannot hold."""
    if t_max > MAX_T_MAX:
        raise InvalidConfig([f"t_max must be <= {MAX_T_MAX} for Monte Carlo trials, got {shown(t_max)}"])


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


def _make_hook(rel_hits, sizes, reliable: frozenset[int]):
    def hook(t: int, tested, risks, wealth, anytime_p, selected: frozenset[int]) -> None:
        rel_hits[t - 1] = len(selected & reliable)
        sizes[t - 1] = len(selected)

    return hook


class TrialAccumulator:
    """Streams per-trial outcomes into the summary statistics in trial order."""

    def __init__(self, reliable: frozenset[int], horizon: int):
        self.reliable = reliable
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

    def add(self, result: RunResult, rel_hits, sizes) -> None:
        """One trial's result and curves, which hold its final set through
        the horizon; the curves are read, never written."""
        unrel_hits = sizes - rel_hits
        n_sel, n_false = int(sizes[-1]), int(unrel_hits[-1])
        self.m += 1
        if n_false:
            self.n_any_false += 1
        if n_sel:
            self.n_nonempty += 1
            self.sum_fdp += n_false / n_sel
        if self.reliable:
            tp = int(rel_hits[-1]) / len(self.reliable)
            self.sum_tp += tp
            self.sum_tp_sq += tp * tp
            self.tp_trials.append(tp)
        self.sum_T += result.T
        self.sum_queries += result.n_queries
        key = result.stop_reason.value
        self.stop_counts[key] = self.stop_counts.get(key, 0) + 1
        self.sum_rel_hits += rel_hits
        self.sum_false_flag += unrel_hits > 0
        fdp_curve = np.zeros(self.horizon)
        np.divide(unrel_hits, sizes, out=fdp_curve, where=sizes > 0)
        self.sum_fdp_curve += fdp_curve
        self.sum_size += sizes

    def summary(self) -> MetricsSummary:
        m = self.m
        fwer = self.n_any_false / m
        fdr_u = self.sum_fdp / m
        fdr_c = self.sum_fdp / self.n_nonempty if self.n_nonempty else math.nan
        if self.reliable:
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


def _one_trial(args) -> tuple[int, RunResult, np.ndarray, np.ndarray]:
    """One trial on the one-run engine: the reference ``_trial_block``'s rows
    must equal, outcome and curves alike, the final set held through t_max."""
    cfg, spec, base_seed, trial, reliable = args
    rel_hits, sizes = np.zeros((2, cfg.t_max), dtype=np.int32)
    source = spec.make_source(base_seed, trial)
    result = run_altt(cfg, source, trial=trial, observer=_make_hook(rel_hits, sizes, reliable))
    rel_hits[result.T:] = len(result.selected & reliable)
    sizes[result.T:] = len(result.selected)
    # Drop the heavyweight fields before results cross a process boundary.
    slim = RunResult(result.selected, result.T, result.stop_reason, (), (), result.n_queries)
    return trial, slim, rel_hits, sizes


def _trial_block(args) -> tuple[list[RunResult], np.ndarray]:
    """Trials start..stop-1 on the trial-batched engine: slim results and
    their (2, M, t_max) curves of reliable hits and set sizes, each round as
    ``_make_hook`` records it and the final set held past a row's stop.  The
    curves are all a block holds beside the engine's state: the observer
    writes each set change through to t_max when it sees it."""
    cfg, spec, base_seed, start, stop, reliable = args
    trials = np.arange(start, stop)
    in_rel = np.zeros(cfg.n_candidates, dtype=bool)
    in_rel[list(reliable)] = True
    # Counts are at most n_candidates, so the least unsigned type holding it
    # holds them; the accumulator's float64 arithmetic on them is exact.
    curves = np.zeros((2, len(trials), cfg.t_max), dtype=np.min_scalar_type(cfg.n_candidates))

    # A row's counts change only with its set, so each change is written
    # from its round to t_max: a later change overwrites its own rounds on,
    # and a row that stops keeps its final set's counts.
    def observe(t: int, rows, ids, risks, moved: np.ndarray, merged_lw, anytime_p, certified: np.ndarray) -> None:
        if not len(moved):
            return
        sel = certified[moved]
        curves[0, moved, t - 1:] = (sel & in_rel).sum(axis=1)[:, None]
        curves[1, moved, t - 1:] = sel.sum(axis=1)[:, None]

    block = spec.make_block(base_seed, trials)
    results = run_block(cfg, block, trials, cfg.t_max, True, observer=observe)
    # Drop the heavyweight fields before results cross a process boundary.
    slim = [RunResult(r.selected, r.T, r.stop_reason, (), (), r.n_queries) for r in results]
    return slim, curves


def _blocks(M: int, processes: int, width: int) -> list[tuple[int, int]]:
    """Contiguous near-equal trial ranges: one per process that runs them,
    more when a process's share exceeds BLOCK_TRIALS trials or
    BLOCK_PAIRS // width of them, width being a trial's candidates times
    its metrics."""
    rows = max(1, min(BLOCK_TRIALS, BLOCK_PAIRS // width))
    count = min(M, max(processes, -(-M // rows)))
    edges = [M * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_trials(
    cfg: CalibrationConfig,
    spec,
    M: int = 1,
    base_seed: int = 0,
    *,
    reliable: frozenset[int] | None = None,
    workers: int = 1,
) -> MetricsSummary:
    """M independent adaptive runs, scored against ground truth.

    Trials run in lock-step in contiguous blocks (``_blocks``), one or more
    per process that runs them: ``workers`` processes, at most one per trial
    and one per CPU the process may run on (``_usable_cpus``).  Outcomes are
    added in trial order, so neither the blocks nor the worker count alters
    a bit of the summary.  ``reliable`` overrides the derived reliable set
    for instances where the requirement does not reduce to cfg.alpha on
    spec.means(); when it is empty the TPR is NaN.
    """
    check_domains(locals(), {"M": argument(TRIALS), "base_seed": KEY, "workers": argument(COUNT)})
    validate_config(cfg)
    check_t_max(cfg.t_max)
    if reliable is None:
        reliable = derive_reliable(cfg, spec)
    elif bad := source_violations(cfg, spec):
        raise InvalidConfig(bad)

    acc = TrialAccumulator(reliable, cfg.t_max)
    processes = min(workers, M, _usable_cpus())
    width = cfg.n_candidates * len(cfg.requirements)
    tasks = [(cfg, spec, base_seed, start, stop, reliable) for start, stop in _blocks(M, processes, width)]
    if processes > 1:
        # Imported where a pool starts, so that a process that starts none
        # loads neither concurrent.futures nor multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        if any(isinstance(arm, Beta) for metric in spec.metrics for arm in metric.arms):
            # Beta draws need scipy.special: forked workers inherit one
            # import here instead of each importing it.
            import scipy.special  # noqa: F401
    with ProcessPoolExecutor(processes) if processes > 1 else nullcontext() as pool:
        blocks = pool.map(_trial_block, tasks) if pool else map(_trial_block, tasks)
        for results, (rel_hits, sizes) in blocks:
            for j, result in enumerate(results):
                acc.add(result, rel_hits[j], sizes[j])
    return acc.summary()
