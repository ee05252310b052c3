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
lock-step: one process per (trial, candidate) pair, and a row of M stops
at its own d_stop.  Row m of its result equals ``_run`` on trial m, bit for
bit, round by round: every step is the same elementwise IEEE arithmetic,
and log1p and exp are math's, taken one element at a time.  The Monte
Carlo harness runs on it; ``_run`` serves single logged runs.

The array layout is one state, ``_ArrayState`` (the (6, K, P) betting state
of P processes and each one's merged log wealth, running max, p- and
e-value, with each metric's strategy bound once per run by
``betting.bind``), and one round, ``_advance``, which calls each metric's
bound bet and fold on one (6, P) block of the tested processes.  run_block
keeps its pairs in it, and ``_run`` its N ids.  ``_run`` picks how to
advance them once per run from the batch its policy implies (N under
full_batch, else min(batch_size, N)): from ARRAY_BATCH ids up with the same
round.  Below, it reads the betting statistics of each (id, metric) process
into flat lists of floats once, advances each tested id in a Python loop
through the same bound strategies, and writes the id's merged log wealth,
p- and e-value into the state.  Its running max, which only the loop reads,
stays a list.

Each engine keeps no history: it calls one observer once per round, after
selection, and the observer keeps what it needs (``runio``'s run log and
replay check, the Monte Carlo harness's curves).

A run_block round does only the work that depends on the state.  The keyed
draws that do not, each trial's acquisition stream state, explore coin and
batch-1 rank draw, are hashed for CHUNK_ROUNDS rounds at a time in one
array pass (``acquisition.round_draws``).  Acquisition returns the tested
(row, id) pairs, and while every row runs the round reads the rows through
a slice, copying none.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import acquisition, selection
from .betting import BettingState, bind
# next_bet and observe are the public per-state API; neither engine calls
# them.  perfbench's tracer substitutes these two bindings, so they stay.
from .betting import next_bet, observe  # noqa: F401
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
# ROADMAP's "Kept on purpose" gives the timings it rests on.
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
    wealth and anytime p-value, float64 arrays of the engine's state, to be
    read during the call and not kept, and the certified frozenset."""
    validate_config(cfg)
    n = cfg.n_candidates
    n_metrics = len(cfg.requirements)
    seed = cfg.seed
    on_evals = cfg.selection_rule is SelectionRuleName.EBH
    # run_block's state, one process per id, keeping the merged wealths.
    arr = _ArrayState(cfg, n, True)
    merged_lw, pvals, evals = arr.lw, arr.p, arr.e

    if _round_batch(cfg) >= ARRAY_BATCH:
        def advance(t: int, batch: tuple[int, ...], risks_row: tuple) -> bool:
            ids = np.array(batch, dtype=np.intp)
            risks = np.array(risks_row, dtype=np.float64).reshape(len(batch), n_metrics)
            rose, e_moved = _advance(arr, t, ids, ids, risks)
            return bool(rose.any()) or e_moved is not None and bool(e_moved.any())
    else:
        # The log wealth and betting statistics of each (id, metric) process
        # as flat lists of floats, at id * K + k.
        lws, ts, sum_gs, sum_sq_devs, ons_mus, ons_curvatures = (
            arr.state.transpose(0, 2, 1).reshape(6, -1).tolist())
        strategies = arr.strategies
        # Only this loop reads the running max, so it stays a list: comparing
        # a float with a numpy element costs about 3x a list's.
        merged_lrm = [0.0] * n

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

    rule_values = (evals if on_evals else pvals)[None]

    def select() -> frozenset[int]:
        row = selection.select_rows(cfg.selection_rule, rule_values, cfg.delta, cfg.fixed_sequence_order)[0]
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
        except (TypeError, ValueError, OverflowError) as exc:
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
        final_wealth=tuple(evals.tolist()),
        final_anytime_p=tuple(pvals.tolist()),
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
    n_metrics = len(cfg.requirements)
    rule = cfg.selection_rule
    on_evals = rule is SelectionRuleName.EBH
    order = cfg.fixed_sequence_order

    # One process per (trial, candidate) pair, flattened as row * n + id.
    arr = _ArrayState(cfg, m * n, on_evals)
    merged_lw, pvals = arr.lw.reshape(m, n), arr.p.reshape(m, n)
    evals = arr.e.reshape(m, n) if on_evals else None
    certified = np.zeros((m, n), dtype=bool)
    views = [a.view() for a in (merged_lw, pvals, certified)]
    for view in views:
        view.flags.writeable = False

    acq_prefix = mix64_np([TAG_ACQ, cfg.seed, np.asarray(trials, dtype=np.uint64)])
    chunk = CHUNK_ROUNDS
    # A row tests each id at most once a round, so at batch 1 its tested
    # rows are distinct.
    one_per_row = _round_batch(cfg) == 1
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
        # While every row runs, a slice spares the gathers of the live rows.
        running = slice(None) if len(live) == m else live
        rows, ids = acquisition.select_rows(
            cfg.acquisition, merged_lw[running], certified[running], draws.at(c, running), t
        )
        if len(live) < m:
            rows = live[rows]
        # When the whole block is tested, as under full_batch, pairs is the
        # identity and a slice spares the gathers.
        pairs = slice(None) if len(ids) == m * n else rows * n + ids
        answer = source.query(t, rows, ids)
        try:
            risks = np.asarray(answer, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SourceFailure(f"round {t}: malformed answer: {exc}") from None
        if risks.shape != (len(ids), n_metrics):
            raise SourceFailure(f"round {t}: expected {n_metrics} metrics per id")
        rose, e_moved = _advance(arr, t, ids, pairs, risks)
        # The rows to re-select, ascending as the tested rows are.
        redo = rows[rose if e_moved is None else rose | e_moved] if adaptive else rows[:0]
        if not one_per_row and len(redo) > 1:
            redo = redo[np.concatenate(([True], redo[1:] != redo[:-1]))]
        moved = redo
        if len(redo):
            sets = selection.select_rows(rule, (evals if on_evals else pvals)[redo], cfg.delta, order)
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
        certified = selection.select_rows(rule, evals if on_evals else pvals, cfg.delta, order)
    wealths = evals if on_evals else _exps(merged_lw)
    n_queries = arr.state[1, 0].reshape(m, n).sum(axis=1).astype(np.int64)
    selected = np.split(np.nonzero(certified)[1], np.cumsum(certified.sum(axis=1))[:-1])
    reasons = [StopReason.REACHED_D if r else StopReason.REACHED_T_MAX for r in reached_d.tolist()]
    return [
        RunResult(frozenset(sel.tolist()), T, reason, tuple(w), tuple(p), queries)
        for sel, T, reason, w, p, queries in zip(
            selected, stop_t.tolist(), reasons, wealths.tolist(), pvals.tolist(), n_queries.tolist()
        )
    ]


def _round_batch(cfg: CalibrationConfig) -> int:
    """The most ids a run of cfg tests in one round."""
    acq, n = cfg.acquisition, cfg.n_candidates
    return n if acq.policy is AcquisitionPolicy.FULL_BATCH else min(acq.batch_size, n)


class _ArrayState:
    """The state of ``size`` processes of ``cfg``: per metric, the log
    wealth and BettingState fields (the tested count as a float) in the
    (6, K, size) ``state``; per process, the merged log wealth ``lw``, its
    running max ``lrm``, the anytime p-value ``p`` and, with ``evals``, the
    merged wealth ``e``.  ``strategies`` holds per metric the payoff's alpha
    and direction, the bet bound, and the bet and fold of cfg's strategy
    bound to it (``betting.bind``), once per run."""

    def __init__(self, cfg: CalibrationConfig, size: int, evals: bool):
        bound = (bind(cfg.betting, bet_bound(a, d)) for a, d in cfg.requirements)
        self.strategies = [(s.bound.alpha, s.bound.direction, s.bound, s.bet, s.fold) for s in bound]
        self.on_evals = cfg.selection_rule is SelectionRuleName.EBH
        self.state = np.zeros((6, len(self.strategies), size))
        self.state[5] = BettingState().ons_curvature
        self.lw, self.lrm, self.p = np.zeros(size), np.zeros(size), np.ones(size)
        self.e = np.ones(size) if evals else None


def _advance(arr: _ArrayState, t: int, ids: np.ndarray, pairs, risks: np.ndarray):
    """Round ``t`` of the processes ``pairs`` of ``arr`` (an index array, or
    slice(None) for all of them) on the (P, K) ``risks``, row j answering for
    id ``ids[j]``: check the risks, advance the bets and wealths, and record
    the merged log wealth, running max, anytime p-value and, where ``arr``
    keeps it, merged wealth.  Returns the mask of the processes whose running
    max rose and, under ebh, of those whose e-value moved (else None)."""
    if not (risks.min(initial=0.0) >= 0.0 and risks.max(initial=1.0) <= 1.0):
        # The first risk out of range, in the order the per-id loop checks them.
        j, k = np.argwhere(~((risks >= 0.0) & (risks <= 1.0)))[0]
        raise SourceFailure(f"round {t}: risk {float(risks[j, k])!r} for id {int(ids[j])} out of [0,1]")
    every = isinstance(pairs, slice)
    for k, (alpha_k, dir_k, bound, bet, fold) in enumerate(arr.strategies):
        state = arr.state[:, k]
        # One (6, P) block of the statistics: gathered, or with every
        # process a view of the state itself.  So the block is written back
        # once, after every input of the write has been read.
        lw, *stats = state[:, pairs] if every else state.take(pairs, axis=1)
        mu = bet(*stats[:4])
        g = payoffs(risks[:, k], alpha_k, dir_k)
        lw = updates(lw, g, mu, bound)
        state[:, pairs] = (lw, *fold(*stats, g, mu))
    if len(arr.strategies) > 1:
        lw = arr.state[0][:, pairs].min(axis=0)
    arr.lw[pairs] = lw
    rose = lw > arr.lrm[pairs]
    if rose.any():
        risen, lw_risen = (np.flatnonzero(rose) if every else pairs[rose]), lw[rose]
        arr.lrm[risen] = lw_risen
        arr.p[risen] = each(math.exp, -lw_risen)
    e_moved = None
    if arr.e is not None:
        e = _exps(lw)
        if arr.on_evals:
            e_moved = e != arr.e[pairs]
        arr.e[pairs] = e
    return rose, e_moved


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
