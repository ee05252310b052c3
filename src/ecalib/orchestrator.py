"""Sequential certification loop and its one-shot baseline.

run_altt drives the adaptive loop: each round the acquisition policy picks a
batch, the source reports risks, tested candidates' bets/wealths advance, the
selection rule recomputes the certified set, and the run stops once the set
reaches d_stop or the round budget t_max is exhausted.  run_ltt shares the
same engine but defers selection to a single application after a fixed
number of rounds, which is why the two coincide exactly under a
non-adaptive policy and identical seeds.

Each candidate keeps one log wealth per metric (K = 1 + len(extra_metrics))
and is certified on their minimum, the merged process.  Its running maximum
is the one source of anytime_p = min(1, 1 / max_{s<=t} wealth_s); max over
rounds of the min is not the min of per-metric maxima, so none are kept.

Selection rules are pure functions of the p-values (e-values for ebh), so
the loop re-selects only in rounds where an input of the rule changed: a
running maximum rose, or for ebh an e-value moved.  In every other round the
certified set is the one the rule returned last.  Before the first round all
p- and e-values are 1, where every rule selects nothing.  Both engines
select with ``selection.select_rows``; ``_run`` passes its one row.

run_block is the same engine for a block of M trials advancing in
lock-step: its state is (M, N, K) arrays, one row per trial, and a row
stops at its own d_stop.  Row m of its result equals ``_run`` on trial m,
bit for bit, round by round: every step is the same elementwise IEEE
arithmetic, and log1p and exp are math's, taken one element at a time.
The Monte Carlo harness runs on it; ``_run`` serves single logged runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import acquisition, selection
from .betting import BettingState, next_bet, observe
from .core import (
    AcquisitionPolicy,
    CalibrationConfig,
    SelectionRuleName,
    validate_config,
)
from .eprocess import bet_bound, each, payoff, payoffs, update, updates
from .errors import InvalidConfig, SourceFailure
from .rng import TAG_ACQ, TAG_TOKEN, MixStream, mix64, mix64_from
from .rng_np import mix64_np

# exp() overflows past ~709.78; report such wealths as inf.
_EXP_MAX = 709.0


class StopReason(enum.Enum):
    REACHED_D = "reached_d"
    REACHED_T_MAX = "reached_t_max"


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


def _exps(lw: np.ndarray) -> np.ndarray:
    """``_exp`` of each element."""
    e = each(math.exp, np.minimum(lw, _EXP_MAX))
    e[lw > _EXP_MAX] = math.inf
    return e


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
    merged_lw = np.zeros(n)  # log of min-over-metrics wealth, for acquisition
    merged_lrm = [0.0] * n  # running max of merged log wealth
    pvals = [1.0] * n
    evals = [1.0] * n  # merged wealth, linear

    on_evals = cfg.selection_rule is SelectionRuleName.EBH
    rule_values = evals if on_evals else pvals

    def select() -> frozenset[int]:
        row = selection.select_rows(
            cfg.selection_rule, np.array([rule_values]), cfg.delta, cfg.literal_set, cfg.fixed_sequence_order
        )[0]
        return frozenset(np.flatnonzero(row).tolist())

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
            certified = select()
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
        certified = select()

    return RunResult(
        selected=certified,
        T=stop_t,
        stop_reason=stop_reason,
        records=tuple(records),
        final_wealth=tuple(evals),
        final_anytime_p=tuple(pvals),
        n_queries=n_queries,
    )


def run_block(
    cfg: CalibrationConfig,
    source,
    trials: Sequence[int],
    horizon: int,
    adaptive: bool,
    *,
    record_rounds: bool = False,
    round_hook=None,
) -> list[RunResult]:
    """``_run`` of every trial in ``trials`` at once, one result per trial.

    ``source.query(t, rows, ids)`` receives the round index and the tested
    (row, id) pairs as two arrays, rows indexing ``trials``, and returns a
    (P, K) array: the K risks of each pair, as the trial's own source would
    answer them.  ``round_hook(t, live, certified)`` is called after each
    round's selection with the indices of the rows that ran the round and
    the (M, N) certified mask.  Per-round work is on the rows still running.
    """
    validate_config(cfg)
    m, n = len(trials), cfg.n_candidates
    metrics = [(cfg.alpha, cfg.direction)] + [(x.alpha, x.direction) for x in cfg.extra_metrics]
    n_metrics = len(metrics)
    bounds = [bet_bound(a, d) for a, d in metrics]
    bspec = cfg.betting
    rule = cfg.selection_rule
    on_evals = rule is SelectionRuleName.EBH
    order = cfg.fixed_sequence_order

    # Per metric and (trial, candidate) pair, flattened as row * n + id: the
    # log wealth, then the BettingState fields (the tested count as a float).
    state = np.zeros((6, n_metrics, m * n))
    state[5] = BettingState().ons_curvature
    merged_lw = np.zeros((m, n))
    merged_lrm = np.zeros((m, n))
    pvals = np.ones((m, n))
    evals = np.ones((m, n)) if on_evals else None
    certified = np.zeros((m, n), dtype=bool)
    # Flat views of the (M, N) arrays, indexed by pair.
    flat_lw, flat_lrm, flat_p = merged_lw.reshape(-1), merged_lrm.reshape(-1), pvals.reshape(-1)
    flat_e = evals.reshape(-1) if on_evals else None

    acq_prefix = mix64_np([TAG_ACQ, cfg.seed, np.asarray(trials, dtype=np.uint64)])
    records: list[list[RoundRecord]] = [[] for _ in range(m)]
    stop_t = np.full(m, horizon)
    reached_d = np.zeros(m, dtype=bool)
    live = np.arange(m)

    for t in range(1, horizon + 1):
        if not len(live):
            break
        tested = acquisition.select_rows(
            cfg.acquisition, merged_lw[live], certified[live], acq_prefix[live], t
        )
        pos, ids = np.nonzero(tested)
        rows = live[pos]
        # When the whole block is tested, as under full_batch, pairs is the
        # identity and a slice spares the gathers.
        every = len(ids) == m * n
        pairs = slice(None) if every else rows * n + ids
        risks = np.asarray(source.query(t, rows, ids), dtype=np.float64)
        if risks.shape != (len(ids), n_metrics):
            raise SourceFailure(f"round {t}: expected {n_metrics} metrics per id")
        if not (risks.min(initial=0.0) >= 0.0 and risks.max(initial=1.0) <= 1.0):
            j, k = np.argwhere(~((risks >= 0.0) & (risks <= 1.0)))[0]
            raise SourceFailure(f"round {t}: risk {float(risks[j, k])!r} for id {int(ids[j])} out of [0,1]")
        for k, (alpha_k, dir_k) in enumerate(metrics):
            bound = bounds[k]
            lw, *stats = state[:, k, pairs]
            bs = BettingState(*stats)
            mu = next_bet(bspec, bs, bound)
            g = payoffs(risks[:, k], alpha_k, dir_k)
            lw = updates(lw, g, mu, bound)
            bs = observe(bspec, bs, g, mu, bound)
            state[:, k, pairs] = (lw, bs.t, bs.sum_g, bs.sum_sq_dev, bs.ons_mu, bs.ons_curvature)
        if n_metrics > 1:
            lw = state[0][:, pairs].min(axis=0)
        flat_lw[pairs] = lw
        changed = np.zeros(m, dtype=bool)
        rose = lw > flat_lrm[pairs]
        if rose.any():
            risen = np.flatnonzero(rose) if every else pairs[rose]
            flat_lrm[risen] = lw[rose]
            flat_p[risen] = each(math.exp, -lw[rose])
            changed[rows[rose]] = True
        if on_evals:
            e = _exps(lw)
            changed[rows[e != flat_e[pairs]]] = True
            flat_e[pairs] = e
        redo = np.flatnonzero(changed) if adaptive else ()
        if len(redo):
            certified[redo] = selection.select_rows(
                rule, (evals if on_evals else pvals)[redo], cfg.delta, cfg.literal_set, order
            )
        if record_rounds:
            _record(records, t, live, tested, ids, risks, merged_lw, evals, pvals, certified)
        if round_hook is not None:
            round_hook(t, live, certified)
        if len(redo):
            done = redo[certified[redo].sum(axis=1) >= cfg.d_stop]
            if len(done):
                stop_t[done] = t
                reached_d[done] = True
                live = live[~np.isin(live, done)]

    if not adaptive:
        certified = selection.select_rows(
            rule, evals if on_evals else pvals, cfg.delta, cfg.literal_set, order
        )
    wealths = evals if on_evals else _exps(merged_lw)
    n_queries = state[1, 0].reshape(m, n).sum(axis=1).astype(np.int64)
    selected = np.split(np.nonzero(certified)[1], np.cumsum(certified.sum(axis=1))[:-1])
    reasons = [StopReason.REACHED_D if r else StopReason.REACHED_T_MAX for r in reached_d.tolist()]
    return [
        RunResult(frozenset(sel.tolist()), T, reason, tuple(recs), tuple(w), tuple(p), queries)
        for sel, T, reason, recs, w, p, queries in zip(
            selected, stop_t.tolist(), reasons, records, wealths.tolist(), pvals.tolist(), n_queries.tolist()
        )
    ]


def _record(records, t, live, tested, ids, risks, merged_lw, evals, pvals, certified) -> None:
    """Append each live row's RoundRecord, as ``_run`` builds it."""
    cuts = np.cumsum(tested.sum(axis=1))[:-1]
    for row, row_ids, row_risks in zip(live, np.split(ids, cuts), np.split(risks, cuts)):
        wealth = evals[row] if evals is not None else _exps(merged_lw[row])
        risks_row = row_risks[:, 0].tolist() if risks.shape[1] == 1 else map(tuple, row_risks.tolist())
        records[row].append(
            RoundRecord(
                t,
                tuple(row_ids.tolist()),
                tuple(risks_row),
                tuple(wealth.tolist()),
                tuple(pvals[row].tolist()),
                frozenset(np.flatnonzero(certified[row]).tolist()),
            )
        )


def run_altt(
    cfg: CalibrationConfig,
    source: RiskSource,
    *,
    trial: int = 0,
    record_rounds: bool = True,
    round_hook=None,
) -> RunResult:
    """Adaptive loop: per-round selection, stop at d_stop or t_max."""
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
