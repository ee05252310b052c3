"""Sequential certification loop and its one-shot baseline.

run_altt drives the adaptive loop: each round the acquisition policy picks a
batch, the source reports risks, tested candidates' bets/wealths advance, the
selection rule recomputes the certified set, and the run stops once the set
reaches d_stop, the round budget t_max is exhausted, or acquisition runs out
of candidates.  run_ltt shares the same engine but defers selection to a
single application after a fixed number of rounds, which is why the two
coincide exactly under a non-adaptive policy and identical seeds.

Each candidate keeps one log wealth per metric (K = 1 + len(extra_metrics))
and is certified on their minimum, the merged process.  Its running maximum
is the one source of anytime_p = min(1, 1 / max_{s<=t} wealth_s); max over
rounds of the min is not the min of per-metric maxima, so none are kept.

Selection rules are pure functions of the p-values (e-values for ebh), so
the loop re-selects only in rounds where an input of the rule changed: a
running maximum rose, or for ebh an e-value moved.  In every other round the
certified set is the one the rule returned last.  Before the first round all
p- and e-values are 1, where every rule selects nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from . import acquisition, selection
from .betting import BettingState, next_bet, observe
from .core import (
    AcquisitionPolicy,
    CalibrationConfig,
    SelectionRuleName,
    validate_config,
)
from .eprocess import bet_bound, payoff, update
from .errors import InvalidConfig, SourceFailure
from .rng import TAG_ACQ, TAG_TOKEN, MixStream, mix64, mix64_from

# exp() overflows past ~709.78; report such wealths as inf.
_EXP_MAX = 709.0


class StopReason(enum.Enum):
    REACHED_D = "reached_d"
    REACHED_T_MAX = "reached_t_max"
    POOL_EXHAUSTED = "pool_exhausted"


class RiskSource(Protocol):
    """Anything that can answer one round's risk queries.

    ``query`` receives the 1-based round index, the tested ids (ascending),
    and an opaque per-round stream token, and returns one risk in [0, 1] per
    id (or one length-K sequence per id for K-metric configs).  A source may
    derive a whole round from a single latent draw, making the batch
    arbitrarily dependent.  A source that never reads the token may set the
    class attribute ``reads_token = False``; it then receives "" instead.
    """

    def query(self, round_index: int, ids: Sequence[int], token: str) -> Sequence:
        ...


@dataclass
class RoundRecord:
    t: int
    tested: tuple[int, ...]
    risks: tuple
    wealth: tuple[float, ...]
    anytime_p: tuple[float, ...]
    selected: frozenset[int]


@dataclass
class RunResult:
    selected: frozenset[int]
    T: int
    stop_reason: StopReason
    records: tuple[RoundRecord, ...]
    final_wealth: tuple[float, ...]
    final_anytime_p: tuple[float, ...]
    n_queries: int


def _exp(lw: float) -> float:
    if lw > _EXP_MAX:
        return math.inf
    return math.exp(lw)


def _make_selector(
    cfg: CalibrationConfig, pvals: list[float], evals: list[float]
) -> Callable[[], selection.SelectionResult]:
    rule = cfg.selection_rule
    delta = cfg.delta
    if rule is SelectionRuleName.BONFERRONI:
        return lambda: selection.bonferroni(pvals, delta)
    if rule is SelectionRuleName.FIXED_SEQUENCE:
        order = cfg.fixed_sequence_order or tuple(range(cfg.n_candidates))
        return lambda: selection.fixed_sequence(pvals, order, delta)
    if rule is SelectionRuleName.BH:
        return lambda: selection.bh(pvals, delta, cfg.literal_set)
    if rule is SelectionRuleName.BY:
        return lambda: selection.by(pvals, delta, cfg.literal_set)
    return lambda: selection.ebh(evals, delta, cfg.literal_set)


def _run(
    cfg: CalibrationConfig,
    source: RiskSource,
    trial: int,
    horizon: int,
    adaptive: bool,
    record_rounds: bool,
    round_hook,
) -> RunResult:
    """The shared engine.  With ``adaptive`` the rule re-selects each round
    and the run stops at d_stop; without it the rule runs once at the end."""
    validate_config(cfg)
    n = cfg.n_candidates
    metrics = [(cfg.alpha, cfg.direction)] + [(m.alpha, m.direction) for m in cfg.extra_metrics]
    n_metrics = len(metrics)
    bounds = [bet_bound(a, d) for a, d in metrics]
    bspec = cfg.betting
    seed = cfg.seed

    lws = [[0.0] * n_metrics for _ in range(n)]  # per-metric log wealths
    bstates = [[BettingState() for _ in range(n_metrics)] for _ in range(n)]
    merged_lw = [0.0] * n  # log of min-over-metrics wealth
    merged_lrm = [0.0] * n  # running max of merged log wealth
    pvals = [1.0] * n
    evals = [1.0] * n  # merged wealth, linear

    select_fn = _make_selector(cfg, pvals, evals)
    on_evals = cfg.selection_rule is SelectionRuleName.EBH
    acq_prefix = mix64(TAG_ACQ, seed, trial)
    token_prefix = mix64(TAG_TOKEN, seed, trial) if getattr(source, "reads_token", True) else None
    certified: frozenset[int] = frozenset()
    records: list[RoundRecord] = []
    n_queries = 0
    stop_reason = StopReason.REACHED_T_MAX
    stop_t = horizon

    for t in range(1, horizon + 1):
        batch = acquisition.select_batch(
            cfg.acquisition, merged_lw, certified, MixStream.from_prefix(acq_prefix, t), t
        )
        if not batch:
            stop_reason = StopReason.POOL_EXHAUSTED
            stop_t = t - 1
            break
        token = "" if token_prefix is None else f"{mix64_from(token_prefix, t):016x}"
        values = source.query(t, batch, token)
        if len(values) != len(batch):
            raise SourceFailure(
                f"round {t}: source returned {len(values)} values for {len(batch)} ids"
            )
        if n_metrics == 1:
            risks_row = tuple(float(v) for v in values)
            rows = [(r,) for r in risks_row]
        else:
            rows = [tuple(float(x) for x in v) for v in values]
            for row in rows:
                if len(row) != n_metrics:
                    raise SourceFailure(f"round {t}: expected {n_metrics} metrics per id")
            risks_row = tuple(rows)
        changed = False
        for pos, i in enumerate(batch):
            row = rows[pos]
            lw_i = lws[i]
            b_i = bstates[i]
            for k in range(n_metrics):
                r = row[k]
                if not 0.0 <= r <= 1.0:
                    raise SourceFailure(f"round {t}: risk {r!r} for id {i} out of [0,1]")
                alpha_k, dir_k = metrics[k]
                bound = bounds[k]
                bs = b_i[k]
                mu = next_bet(bspec, bs, bound)
                g = payoff(r, alpha_k, dir_k)
                lw_i[k] = update(lw_i[k], g, mu, bound)
                b_i[k] = observe(bspec, bs, g, mu, bound)
            lw = min(lw_i)
            merged_lw[i] = lw
            if lw > merged_lrm[i]:
                merged_lrm[i] = lw
                pvals[i] = math.exp(-lw)
                changed = True
            e = _exp(lw)
            if on_evals and e != evals[i]:
                changed = True
            evals[i] = e
        n_queries += len(batch)
        if adaptive and changed:
            certified = select_fn().selected
        if record_rounds:
            records.append(
                RoundRecord(t, batch, risks_row, tuple(evals), tuple(pvals), certified)
            )
        if round_hook is not None:
            round_hook(t, batch, certified)
        if adaptive and len(certified) >= cfg.d_stop:
            stop_reason = StopReason.REACHED_D
            stop_t = t
            break

    if not adaptive:
        certified = select_fn().selected

    return RunResult(
        selected=certified,
        T=stop_t,
        stop_reason=stop_reason,
        records=tuple(records),
        final_wealth=tuple(evals),
        final_anytime_p=tuple(pvals),
        n_queries=n_queries,
    )


def run_altt(
    cfg: CalibrationConfig,
    source: RiskSource,
    *,
    trial: int = 0,
    record_rounds: bool = True,
    round_hook=None,
) -> RunResult:
    """Adaptive loop: per-round selection, stop at d_stop / t_max / empty pool."""
    return _run(cfg, source, trial, cfg.t_max, True, record_rounds, round_hook)


def run_ltt(
    cfg: CalibrationConfig,
    source: RiskSource,
    T: int,
    *,
    trial: int = 0,
    record_rounds: bool = True,
    round_hook=None,
) -> RunResult:
    """Non-adaptive baseline: T rounds, then the selection rule applied once.

    Requires a non-adaptive acquisition policy (anything but EPS_GREEDY),
    since adaptivity would leak the deferred selection into acquisition.
    """
    if cfg.acquisition.policy is AcquisitionPolicy.EPS_GREEDY:
        raise InvalidConfig(["run_ltt requires a non-adaptive acquisition policy"])
    if T < 0:
        raise InvalidConfig(["T must be >= 0"])
    return _run(cfg, source, trial, T, False, record_rounds, round_hook)
