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

``_run`` picks its layout once per run from the batch its policy implies
(N under full_batch, else min(batch_size, N)).  From ARRAY_BATCH ids up it
keeps the betting state in (6, K, N) arrays and advances a round's ids with
``_advance``, the update run_block makes, and the p- and e-values are
arrays too.  Below, it keeps the same state of each (id, metric) process in
flat lists of floats, advances each tested id in a Python loop through the
metrics' strategies, bound once per run (``betting.bind``), and keeps the
values in lists of floats.

Each engine keeps no history: it calls one observer once per round, after
selection, and the observer keeps what it needs (``runio``'s run log and
replay check, the Monte Carlo harness's curves).

A run_block round does only the work that depends on the state.  The keyed
draws that do not, each trial's acquisition stream state, explore coin and
batch-1 rank draw, are hashed for CHUNK_ROUNDS rounds at a time in one
array pass (``acquisition.round_draws``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import acquisition, selection
from .betting import BettingState, bind, next_bet, observe
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

# Rounds whose state-independent keyed draws run_block hashes in one array
# pass; a block holds a few (CHUNK_ROUNDS, M) arrays.
CHUNK_ROUNDS = 64

# The least per-round batch at which ``_run`` advances its wealths as arrays.
# Pinned to one CPU, the array update of b ids costs 50-67 us at any b <= 50,
# the per-id loop 7.0 us at b = 4, 19.6 at 12, 32.6 at 20 and 58.2 at 36.
# The update alone crosses over near 36-40 ids, but whole runs at 24 and 30
# ids on 1,000 e-BH arms tie: the per-id layout's list of values is made an
# array at each re-selection.  So the constant stays where it was measured.
ARRAY_BATCH = 20


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
class RunResult:
    selected: frozenset[int]
    T: int
    stop_reason: StopReason
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
    observer,
) -> RunResult:
    """The shared engine.  With ``adaptive`` the rule re-selects each round
    and the run stops at d_stop; without it the rule runs once at the end.

    ``observer(t, tested, risks, wealth, anytime_p, certified)``, when
    given, is called once per round after selection with the tested ids,
    their risks row (a float or K-tuple per id), every candidate's merged
    wealth and anytime p-value, the engine's own list or array, to be read
    during the call and not kept, and the certified frozenset."""
    validate_config(cfg)
    n = cfg.n_candidates
    metrics = cfg.requirements
    n_metrics = len(metrics)
    bounds = [bet_bound(a, d) for a, d in metrics]
    bspec = cfg.betting
    seed = cfg.seed

    merged_lw = np.zeros(n)  # log of min-over-metrics wealth, for acquisition
    on_evals = cfg.selection_rule is SelectionRuleName.EBH
    acq = cfg.acquisition
    arrays = (n if acq.policy is AcquisitionPolicy.FULL_BATCH else min(acq.batch_size, n)) >= ARRAY_BATCH

    if arrays:
        # As run_block's state, one column per id.
        state = np.zeros((6, n_metrics, n))
        state[5] = BettingState().ons_curvature
        merged_lrm = np.zeros(n)
        pvals = np.ones(n)
        evals = np.ones(n)  # merged wealth, linear

        def advance(t: int, batch: tuple[int, ...], risks_row: tuple) -> bool:
            ids = np.array(batch, dtype=np.intp)
            risks = np.array(risks_row, dtype=np.float64).reshape(len(batch), n_metrics)
            _check_risks(t, risks, batch)
            lw = _advance(state, ids, risks, metrics, bounds, bspec)
            merged_lw[ids] = lw
            rose = lw > merged_lrm[ids]
            changed = bool(rose.any())
            if changed:
                risen = ids[rose]
                merged_lrm[risen] = lw[rose]
                pvals[risen] = each(math.exp, -lw[rose])
            e = _exps(lw)
            if on_evals:
                changed |= bool((e != evals[ids]).any())
            evals[ids] = e
            return changed
    else:
        # The log wealth and BettingState fields of each (id, metric)
        # process, flat at id * K + k.
        fresh = BettingState()
        size = n * n_metrics
        lws = [0.0] * size
        ts, sum_gs, sum_sq_devs = [fresh.t] * size, [fresh.sum_g] * size, [fresh.sum_sq_dev] * size
        ons_mus, ons_curvatures = [fresh.ons_mu] * size, [fresh.ons_curvature] * size
        # Per metric: the payoff's alpha and direction, the bet bound, and the
        # bet and fold of the strategy bound to it.
        strategies = [(s.bound.alpha, s.bound.direction, s.bound, s.bet, s.fold)
                      for s in (bind(bspec, b) for b in bounds)]
        merged_lrm = [0.0] * n  # running max of merged log wealth
        pvals = [1.0] * n
        evals = [1.0] * n  # merged wealth, linear

        def advance(t: int, batch: tuple[int, ...], risks_row: tuple) -> bool:
            changed = False
            for i, row in zip(batch, zip(risks_row) if n_metrics == 1 else risks_row):
                j = i * n_metrics
                lw = math.inf  # the min over metrics
                for r, (alpha_k, dir_k, bound, bet, fold) in zip(row, strategies):
                    if not 0.0 <= r <= 1.0:
                        raise SourceFailure(f"round {t}: risk {r!r} for id {i} out of [0,1]")
                    mu = bet(ts[j], sum_gs[j], sum_sq_devs[j], ons_mus[j])
                    g = payoff(r, alpha_k, dir_k)
                    lw_k = lws[j] = update(lws[j], g, mu, bound)
                    ts[j], sum_gs[j], sum_sq_devs[j], ons_mus[j], ons_curvatures[j] = fold(
                        ts[j], sum_gs[j], sum_sq_devs[j], ons_mus[j], ons_curvatures[j], g, mu)
                    if lw_k < lw:
                        lw = lw_k
                    j += 1
                merged_lw[i] = lw
                if lw > merged_lrm[i]:
                    merged_lrm[i] = lw
                    pvals[i] = math.exp(-lw)
                    changed = True
                e = _exp(lw)
                if on_evals and e != evals[i]:
                    changed = True
                evals[i] = e
            return changed

    rule_values = evals if on_evals else pvals

    def select() -> frozenset[int]:
        values = rule_values[None] if arrays else np.array([rule_values])
        row = selection.select_rows(
            cfg.selection_rule, values, cfg.delta, cfg.literal_set, cfg.fixed_sequence_order
        )[0]
        return frozenset(np.flatnonzero(row).tolist())

    acq_prefix = mix64(TAG_ACQ, seed, trial)
    token_prefix = mix64(TAG_TOKEN, seed, trial) if getattr(source, "reads_token", True) else None
    certified: frozenset[int] = frozenset()
    n_queries = 0
    stop_reason = StopReason.REACHED_T_MAX
    stop_t = horizon

    for t in range(1, horizon + 1):
        batch = acquisition.select_batch(
            cfg.acquisition, merged_lw, certified, MixStream.from_prefix(acq_prefix, t), t
        )
        token = "" if token_prefix is None else f"{mix64_from(token_prefix, t):016x}"
        values = source.query(t, batch, token)
        try:
            if len(values) != len(batch):
                raise SourceFailure(
                    f"round {t}: source returned {len(values)} values for {len(batch)} ids"
                )
            if n_metrics == 1:
                risks_row = tuple(map(float, values))
            else:
                risks_row = tuple(tuple(map(float, v)) for v in values)
                for row in risks_row:
                    if len(row) != n_metrics:
                        raise SourceFailure(f"round {t}: expected {n_metrics} metrics per id")
        except (TypeError, ValueError) as exc:
            raise SourceFailure(f"round {t}: malformed answer: {exc}") from None
        changed = advance(t, batch, risks_row)
        n_queries += len(batch)
        if adaptive and changed:
            # An equal set keeps its object, so that observers can tell a
            # changed set by identity.
            selected = select()
            if selected != certified:
                certified = selected
        if observer is not None:
            observer(t, batch, risks_row, evals, pvals, certified)
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
        final_wealth=tuple(evals.tolist() if arrays else evals),
        final_anytime_p=tuple(pvals.tolist() if arrays else pvals),
        n_queries=n_queries,
    )


def run_block(
    cfg: CalibrationConfig,
    source,
    trials: Sequence[int],
    horizon: int,
    adaptive: bool,
    *,
    observer=None,
) -> list[RunResult]:
    """``_run`` of every trial in ``trials`` at once, one result per trial.

    ``source.query(t, rows, ids)`` receives the round index and the tested
    (row, id) pairs as two arrays, rows indexing ``trials``, and returns a
    (P, K) array: the K risks of each pair, as the trial's own source would
    answer them.  ``observer(t, rows, ids, risks, moved, merged_lw,
    anytime_p, certified)``, when given, is called once per round after
    selection with the tested pairs (by row, then id; each running row tests
    some), their (P, K) risks, the rows whose certified set changed, in
    whose rounds alone a row stops, and read-only (M, N) views of the merged
    log wealth, anytime p-values and certified mask.  Per-round work is on
    the rows still running.
    """
    validate_config(cfg)
    m, n = len(trials), cfg.n_candidates
    metrics = cfg.requirements
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
    views = [a.view() for a in (merged_lw, pvals, certified)]
    for view in views:
        view.flags.writeable = False

    acq_prefix = mix64_np([TAG_ACQ, cfg.seed, np.asarray(trials, dtype=np.uint64)])
    chunk = CHUNK_ROUNDS
    stop_t = np.full(m, horizon)
    reached_d = np.zeros(m, dtype=bool)
    live = np.arange(m)

    for t in range(1, horizon + 1):
        if not len(live):
            break
        c = (t - 1) % chunk
        if not c:
            rounds = np.arange(t, min(t + chunk, horizon + 1), dtype=np.uint64)
            draws = acquisition.round_draws(cfg.acquisition, n, acq_prefix, rounds[:, None])
        tested = acquisition.select_rows(cfg.acquisition, merged_lw[live], certified[live], draws.at(c, live), t)
        pos, ids = np.divmod(np.flatnonzero(tested), n)
        rows = live[pos]
        # When the whole block is tested, as under full_batch, pairs is the
        # identity and a slice spares the gathers.
        every = len(ids) == m * n
        pairs = slice(None) if every else rows * n + ids
        answer = source.query(t, rows, ids)
        try:
            risks = np.asarray(answer, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SourceFailure(f"round {t}: malformed answer: {exc}") from None
        if risks.shape != (len(ids), n_metrics):
            raise SourceFailure(f"round {t}: expected {n_metrics} metrics per id")
        _check_risks(t, risks, ids)
        lw = _advance(state, pairs, risks, metrics, bounds, bspec)
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
        redo = np.flatnonzero(changed) if adaptive else np.array([], dtype=np.intp)
        moved = redo
        if len(redo):
            sets = selection.select_rows(
                rule, (evals if on_evals else pvals)[redo], cfg.delta, cfg.literal_set, order
            )
            moved = redo[(sets != certified[redo]).any(axis=1)]
            certified[redo] = sets
        if observer is not None:
            observer(t, rows, ids, risks, moved, *views)
        if len(moved):
            # A set below d_stop that did not change is still below it.
            done = moved[certified[moved].sum(axis=1) >= cfg.d_stop]
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
        RunResult(frozenset(sel.tolist()), T, reason, tuple(w), tuple(p), queries)
        for sel, T, reason, w, p, queries in zip(
            selected, stop_t.tolist(), reasons, wealths.tolist(), pvals.tolist(), n_queries.tolist()
        )
    ]


def _check_risks(t: int, risks: np.ndarray, ids) -> None:
    """SourceFailure naming the first risk outside [0, 1] of a (P, K) array
    whose row j answers for id ``ids[j]``, in the order the per-id loop
    checks them."""
    if not (risks.min(initial=0.0) >= 0.0 and risks.max(initial=1.0) <= 1.0):
        j, k = np.argwhere(~((risks >= 0.0) & (risks <= 1.0)))[0]
        raise SourceFailure(f"round {t}: risk {float(risks[j, k])!r} for id {int(ids[j])} out of [0,1]")


def _advance(state: np.ndarray, pairs, risks: np.ndarray, metrics, bounds, bspec) -> np.ndarray:
    """One betting round of the columns ``pairs`` of ``state``, the (6, K, .)
    log wealths and BettingState fields (the tested count as a float), on
    the (P, K) ``risks``; returns their merged log wealth, the min over
    metrics."""
    for k, (alpha_k, dir_k) in enumerate(metrics):
        bound = bounds[k]
        lw, *stats = state[:, k, pairs]
        bs = BettingState(*stats)
        mu = next_bet(bspec, bs, bound)
        g = payoffs(risks[:, k], alpha_k, dir_k)
        lw = updates(lw, g, mu, bound)
        bs = observe(bspec, bs, g, mu, bound)
        state[:, k, pairs] = (lw, bs.t, bs.sum_g, bs.sum_sq_dev, bs.ons_mu, bs.ons_curvature)
    if len(metrics) > 1:
        lw = state[0][:, pairs].min(axis=0)
    return lw


def run_altt(
    cfg: CalibrationConfig,
    source: RiskSource,
    *,
    trial: int = 0,
    observer=None,
    round_hook=None,
) -> RunResult:
    """Adaptive loop: per-round selection, stop at d_stop or t_max.

    ``observer`` is ``_run``'s; ``round_hook`` is called after it every
    round, with the same arguments."""
    # round_hook stays only for perfbench/harness.py, whose wrapper of
    # cli.run_altt stamps each round through it beside the command's observer.
    if round_hook is not None:
        first = observer
        observer = round_hook if first is None else lambda *args: (first(*args), round_hook(*args))
    return _run(cfg, source, trial, cfg.t_max, True, observer)


def run_ltt(
    cfg: CalibrationConfig,
    source: RiskSource,
    T: int,
    *,
    trial: int = 0,
    observer=None,
) -> RunResult:
    """Non-adaptive baseline: T rounds, then the selection rule applied once.

    Requires a non-adaptive acquisition policy (anything but EPS_GREEDY),
    since adaptivity would leak the deferred selection into acquisition.
    """
    if cfg.acquisition.policy is AcquisitionPolicy.EPS_GREEDY:
        raise InvalidConfig(["run_ltt requires a non-adaptive acquisition policy"])
    if T < 0:
        raise InvalidConfig(["T must be >= 0"])
    return _run(cfg, source, trial, T, False, observer)
