"""Acquisition policies: which candidates get tested each round.

EPS_GREEDY follows the wealth leaders among not-yet-certified candidates and
explores uniformly (within that pool) with probability epsilon.  Only the
ordering of ``wealths`` matters, so callers may pass wealths on any monotone
scale (the engines pass log wealth).

``select_batch`` serves one run; ``select_rows`` serves a block of trials
advancing in lock-step, one row per trial, and pairs row r with exactly the
ids ``select_batch`` returns for row r's wealths, certified set and stream.
Its keyed draws do not depend on the run's state, so they can be hashed
ahead (``round_draws``), for any number of rounds in one array pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, NamedTuple, Sequence

import numpy as np

from .core import AcquisitionPolicy, AcquisitionSpec
from .rng import MixStream
from .rng_np import mix64_from_np, randbelow_np, stream_u64_np, uniform_np


def select_batch(
    spec: AcquisitionSpec,
    wealths: Sequence[float],
    certified: AbstractSet[int],
    stream: MixStream,
    round_index: int,
) -> tuple[int, ...]:
    """Return the tested ids for this round, ascending.

    EPS_GREEDY draws its explore/exploit coin every round, so the stream
    consumption pattern does not depend on epsilon.  Exploring, it draws k
    pool positions from the stream.  Exploiting, it takes the k highest pool
    wealths, ties going to the lowest ids, with one cut of the pool at its
    k-th largest wealth (``np.partition``, linear time).  A pool smaller
    than the batch is returned whole; an empty pool yields ().  The engine
    never meets one: a run stops at d_stop <= N certified candidates.
    """
    n = len(wealths)
    policy = spec.policy

    if policy is AcquisitionPolicy.FULL_BATCH:
        return tuple(range(n))

    b = min(spec.batch_size, n)

    if policy is AcquisitionPolicy.ROUND_ROBIN:
        start = ((round_index - 1) * b) % n
        return tuple(sorted((start + j) % n for j in range(b)))

    if policy is AcquisitionPolicy.UNIFORM_ALL:
        return tuple(sorted(stream.sample_without_replacement(n, b)))

    # EPS_GREEDY
    pool = _pool(frozenset(certified), n)
    m = len(pool)
    if not m:
        return ()
    k = min(b, m)
    if stream.uniform() < spec.epsilon:
        return tuple(sorted(pool[stream.sample_without_replacement(m, k)].tolist()))
    w = np.asarray(wealths, dtype=np.float64)[pool]
    if k == 1:
        return (int(pool[np.argmax(w)]),)  # the first maximum: ties go to the lowest id
    # Every pool wealth at or above the k-th largest, less the highest-id
    # ties at that cut when there are more than k; the ascending pool keeps
    # the picks ascending.
    cut = np.partition(w, m - k)[m - k]
    top = w >= cut
    extra = np.count_nonzero(top) - k
    if extra:
        top[np.flatnonzero(w == cut)[-extra:]] = False
    return tuple(pool[top].tolist())


@lru_cache(maxsize=8)
def _pool(certified: frozenset[int], n: int) -> np.ndarray:
    """The uncertified ids, ascending.  A run's certified set changes only
    when it re-selects, so most rounds find their pool here."""
    free = np.ones(n, dtype=bool)
    free[np.fromiter(certified, dtype=np.intp, count=len(certified))] = False
    pool = np.flatnonzero(free)
    pool.flags.writeable = False
    return pool


class Draws(NamedTuple):
    """The keyed draws ``select_rows`` reads, from each row's round stream
    ``MixStream.from_prefix(prefix, t)``: the stream state (for Fisher-Yates
    steps), the eps-greedy explore coin (output 1 < epsilon) and the batch-1
    rank draw (output 2).  A field the policy never reads is None."""

    states: np.ndarray | None
    explore: np.ndarray | None
    rank_u64: np.ndarray | None

    def at(self, c: int, rows) -> "Draws":
        """Round c of draws laid out (rounds, rows), for the given rows."""
        states, explore, rank_u64 = self
        return Draws(
            None if states is None else states[c, rows],
            None if explore is None else explore[c, rows],
            None if rank_u64 is None else rank_u64[c, rows],
        )


def round_draws(spec: AcquisitionSpec, n: int, prefixes: np.ndarray, rounds) -> Draws:
    """The draws of ``select_rows`` over N = n candidates for streams with
    these prefixes in these rounds; ``rounds`` broadcasts against
    ``prefixes``, so an int gives one round and a column of rounds gives a
    (rounds, rows) layout."""
    policy = spec.policy
    if policy in (AcquisitionPolicy.FULL_BATCH, AcquisitionPolicy.ROUND_ROBIN):
        return Draws(None, None, None)
    states = mix64_from_np(prefixes, rounds)
    if policy is AcquisitionPolicy.UNIFORM_ALL:
        return Draws(states, None, None)
    explore = uniform_np(stream_u64_np(states, 1)) < spec.epsilon
    if min(spec.batch_size, n) == 1:
        return Draws(None, explore, stream_u64_np(states, 2))
    return Draws(states, explore, None)


def select_rows(
    spec: AcquisitionSpec,
    wealths: np.ndarray,
    certified: np.ndarray,
    draws: Draws,
    round_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``select_batch``: the tested (row, id) pairs as two arrays,
    ordered by row and then by id.

    ``wealths`` and ``certified`` are (R, N) arrays; ``draws`` holds row
    r's round-``round_index`` draws at index r of each field, as
    ``round_draws(spec, N, prefixes, round_index)`` gives them.  Eps-greedy
    rows differ in pool size, so the pool is the explicit mask ~certified,
    never a sentinel wealth: an uncertified candidate may be bankrupt at
    -inf itself.  A row whose pool is empty tests nothing.
    """
    r, n = wealths.shape
    policy = spec.policy
    b = min(spec.batch_size, n)
    if policy is AcquisitionPolicy.EPS_GREEDY and b == 1:
        # The first pool id holding the pool's top wealth, or when exploring
        # the pool id of rank randbelow(pool size).  argmax finds the first
        # top; it lands on a certified id only when every pool wealth is
        # -inf, and then the first pool id is the pick.
        free = ~certified
        explore = draws.explore
        rows = np.arange(r)
        pool_w = np.where(free, wealths, -np.inf)
        pick = pool_w.argmax(axis=1)
        floor = pool_w[rows, pick] == -np.inf
        floored = floor.any()
        if floored:
            pick[floor] = free[floor].argmax(axis=1)
        if explore.any():
            f = free[explore]
            rank = randbelow_np(draws.rank_u64[explore], f.sum(axis=1))
            pick[explore] = (f.cumsum(axis=1) == rank[:, None] + 1).argmax(axis=1)
        if floored:
            # Only a floor row's pool can be empty: its pick is certified,
            # and it tests nothing.
            keep = free[rows, pick]
            return rows[keep], pick[keep]
        return rows, pick
    tested = np.zeros((r, n), dtype=bool)
    if policy is AcquisitionPolicy.FULL_BATCH:
        tested[:] = True
    elif policy is AcquisitionPolicy.ROUND_ROBIN:
        start = ((round_index - 1) * b) % n
        tested[:, (start + np.arange(b)) % n] = True
    elif policy is AcquisitionPolicy.UNIFORM_ALL:
        pool = np.tile(np.arange(n), (r, 1))
        _fisher_yates(tested, pool, np.full(r, n), np.full(r, b), draws.states, 1)
    else:  # EPS_GREEDY
        free = ~certified
        explore = draws.explore
        pool_size = np.count_nonzero(free, axis=1)
        if explore.any():
            rows = np.flatnonzero(explore)
            # Row j of pool lists row j's uncertified ids first, ascending.
            pool = np.argsort(certified[rows], axis=1, kind="stable")
            sizes = pool_size[rows]
            sub = np.zeros(pool.shape, dtype=bool)
            _fisher_yates(sub, pool, sizes, np.minimum(b, sizes), draws.states[rows], 2)
            tested[rows] = sub
        exploit = np.flatnonzero(~explore)
        if len(exploit):
            w, f = wealths[exploit], free[exploit]
            sizes = pool_size[exploit]
            # The b-th largest pool wealth: -inf fills the certified slots,
            # which rank below every pool wealth, so they cannot change its
            # value.  A pool smaller than the batch is taken whole
            # (threshold -inf).
            thr = np.partition(np.where(f, w, -np.inf), n - b, axis=1)[:, n - b]
            thr[sizes < b] = -np.inf
            above = f & (w > thr[:, None])
            tied = f & (w == thr[:, None])
            # Fill the rest of the batch with the lowest-id ties.
            room = np.minimum(b, sizes) - np.count_nonzero(above, axis=1)
            tested[exploit] = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return np.divmod(np.flatnonzero(tested), n)


def _fisher_yates(
    tested: np.ndarray,
    pool: np.ndarray,
    sizes: np.ndarray,
    k: np.ndarray,
    states: np.ndarray,
    first: int,
) -> None:
    """``MixStream.sample_without_replacement`` row-wise: k[j] picks from the
    first sizes[j] entries of pool row j, with draw i on stream output
    first + i; marks the picked ids in ``tested``.

    A draw depends only on its stream and the pool size, so all are taken
    at once; steps past a row's k swap slots that row never reads.  Step i
    swaps slots i and swaps[j, i] of every row j with one gather and one
    scatter on the flattened pool: rows own disjoint slots, and a swap of a
    slot with itself writes the value it reads.
    """
    steps = np.arange(int(k.max(initial=0)))
    rows = np.arange(len(pool))
    u64 = stream_u64_np(states[:, None], first + steps)
    swaps = steps + randbelow_np(u64, np.maximum(sizes[:, None] - steps, 1))
    flat = pool.reshape(-1)
    base = rows[:, None] * pool.shape[1]
    a, b = (base + steps).T, (base + swaps).T
    ab, ba = np.hstack((a, b)), np.hstack((b, a))
    for i in steps:
        flat[ab[i]] = flat[ba[i]]
    picks = np.arange(pool.shape[1]) < k[:, None]
    tested[np.repeat(rows, k), flat.reshape(pool.shape)[picks]] = True
