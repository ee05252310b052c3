"""Certified-set selection rules.

All rules are pure: given the current anytime-valid p-values (or e-values for
ebh) they return the certified set.  Step-up rules (bh, by, ebh) select the
standard closure: every rank up to the largest passing rank k*.  The closure
is self-consistent, each selected id passing the threshold of the set's own
size, which is what the FDR guarantees of BH, BY and e-BH rest on.  Ties in p
or e are ranked by ascending id, but the closure never ranks: it cuts each
row at the sorted value of rank k*, which selects the same set because a tie
cannot straddle k*.  Each (N, delta)'s thresholds are computed once.

``select_rows`` is the one implementation of every rule: it applies a rule
to each row of an (R, N) array at once, and both engines select through it.
The named rules (``bonferroni``, ..., ``ebh``) check one row's values
against the rule's domain and then select on that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import SelectionRuleName, check_order
from .errors import OutOfRange


@dataclass(frozen=True)
class SelectionResult:
    selected: frozenset[int]


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


# Per-rank thresholds depend only on (n, delta); each rule computes them once.


@lru_cache(maxsize=64)
def _bh_thresholds(n: int, delta: float) -> np.ndarray:
    return _frozen([(k + 1) * delta / n for k in range(n)])


@lru_cache(maxsize=64)
def _by_thresholds(n: int, delta: float) -> np.ndarray:
    h_n = sum(1.0 / k for k in range(1, n + 1))
    return _frozen([(k + 1) * delta / (n * h_n) for k in range(n)])


@lru_cache(maxsize=64)
def _ebh_thresholds(n: int, delta: float) -> np.ndarray:
    return _frozen([n / ((k + 1) * delta) for k in range(n)])


def _step_up_rows(x: np.ndarray, thr_arr: np.ndarray, ascending: bool) -> np.ndarray:
    """Step-up over ascending p (``ascending``) or descending e, row-wise."""
    # The closure keeps every rank up to the last passing rank k*: every
    # value at least as good as the cut, the sorted value at k*, which is the
    # worst passing one.  Ties cannot straddle k*: the thresholds are monotone
    # in rank (IEEE rounding is monotone), so a value at rank k*+1 equal to
    # the cut would pass too.
    # Negating twice sorts e descending with NaN last, where it never passes.
    # A row where nothing passes cuts at -inf (p) or inf (e), which none of
    # its values reaches: such a value would pass at rank 1.
    srt = np.sort(x, axis=1) if ascending else -np.sort(-x, axis=1)
    if ascending:
        return x <= np.max(srt, axis=1, where=srt <= thr_arr, initial=-np.inf)[:, None]
    return x >= np.min(srt, axis=1, where=srt >= thr_arr, initial=np.inf)[:, None]


def select_rows(
    rule: SelectionRuleName, values: np.ndarray, delta: float, order: Sequence[int] | None = None
) -> np.ndarray:
    """The (R, N) mask of each row's certified set under ``rule``.

    ``values`` holds p-values, or e-values for EBH, one row per trial, in
    their domains (the engines derive them from log wealth); ``order`` is
    the fixed-sequence order, identity by default.
    """
    n = values.shape[1]
    if rule is SelectionRuleName.BONFERRONI:
        return values <= delta / n
    if rule is SelectionRuleName.FIXED_SEQUENCE:
        order = np.arange(n) if order is None else np.asarray(order)
        prefix = np.logical_and.accumulate(values[:, order] <= delta, axis=1)
        selected = np.empty(values.shape, dtype=bool)
        selected[:, order] = prefix
        return selected
    if rule is SelectionRuleName.EBH:
        return _step_up_rows(values, _ebh_thresholds(n, delta), False)
    thresholds = _bh_thresholds if rule is SelectionRuleName.BH else _by_thresholds
    return _step_up_rows(values, thresholds(n, delta), True)


def _select_one(
    rule: SelectionRuleName, values: Sequence[float], delta: float, order: Sequence[int] | None = None
) -> SelectionResult:
    """``select_rows`` on the one row ``values``, once every value is in the
    rule's domain; OutOfRange names the first that is not, as given."""
    x = np.array(values, dtype=np.float64)
    on_e = rule is SelectionRuleName.EBH
    # 0.0 is a p-value: extreme-evidence underflow of exp(-log max wealth).
    bad = ~(x >= 0.0) if on_e else ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        v = values[int(np.argmax(bad))]
        raise OutOfRange(f"e-value {v!r} not a nonnegative real" if on_e else f"p-value {v!r} out of [0,1]")
    if order is not None:
        check_order(tuple(order), len(x))
    return SelectionResult(frozenset(np.flatnonzero(select_rows(rule, x[None, :], delta, order)[0]).tolist()))


def bonferroni(p: Sequence[float], delta: float) -> SelectionResult:
    """Select {i: p_i <= delta / N}."""
    return _select_one(SelectionRuleName.BONFERRONI, p, delta)


def fixed_sequence(p: Sequence[float], order: Sequence[int], delta: float) -> SelectionResult:
    """Select the longest prefix of ``order`` with every p <= delta."""
    return _select_one(SelectionRuleName.FIXED_SEQUENCE, p, delta, order=order)


def bh(p: Sequence[float], delta: float) -> SelectionResult:
    """Step-up over ascending p with per-rank threshold k * delta / N."""
    return _select_one(SelectionRuleName.BH, p, delta)


def by(p: Sequence[float], delta: float) -> SelectionResult:
    """bh with every threshold shrunk by the harmonic sum H_N."""
    return _select_one(SelectionRuleName.BY, p, delta)


def ebh(e: Sequence[float], delta: float) -> SelectionResult:
    """Step-up over descending e with per-rank threshold N / (k * delta)."""
    return _select_one(SelectionRuleName.EBH, e, delta)
