"""Acquisition policies: which candidates get tested each round.

EPS_GREEDY follows the wealth leaders among not-yet-certified candidates and
explores uniformly (within that pool) with probability epsilon.  Only the
ordering of ``wealths`` matters, so callers may pass wealths on any monotone
scale (the engine passes log wealth).
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

import numpy as np

from .core import AcquisitionPolicy, AcquisitionSpec
from .rng import MixStream


def select_batch(
    spec: AcquisitionSpec,
    wealths: Sequence[float],
    certified: AbstractSet[int],
    stream: MixStream,
    round_index: int,
) -> tuple[int, ...]:
    """Return the tested ids for this round, ascending.

    EPS_GREEDY draws its explore/exploit coin every round, so the stream
    consumption pattern does not depend on epsilon.  A pool smaller than the
    batch is returned whole; an empty pool yields () and signals exhaustion.
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
    pool = [i for i in range(n) if i not in certified]
    if not pool:
        return ()
    k = min(b, len(pool))
    if stream.uniform() < spec.epsilon:
        picks = [pool[j] for j in stream.sample_without_replacement(len(pool), k)]
        return tuple(sorted(picks))
    if k == 1:
        best = pool[0]
        best_w = wealths[best]
        for i in pool[1:]:
            w = wealths[i]
            if w > best_w:
                best, best_w = i, w
        return (best,)
    # pool is ascending, so a stable sort on -wealth breaks ties by id.
    ids = np.array(pool)
    top = ids[np.argsort(-np.array(wealths, dtype=np.float64)[ids], kind="stable")[:k]]
    return tuple(sorted(top.tolist()))
