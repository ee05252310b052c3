"""Certified-set selection rules.

All rules are pure: given the current anytime-valid p-values (or e-values for
ebh) they return the certified set plus the per-rank thresholds that produced
it.  Step-up rules (bh, by, ebh) default to the standard closure (select every
rank up to the largest passing rank k*); ``literal=True`` instead selects
exactly the ranks whose own predicate passes, which can be non-contiguous.
Ties in p or e are ranked by ascending id so results are deterministic: the
step-up rules rank with a stable argsort, which orders ties exactly as
sorting on (value, id) does, and compute each (N, delta)'s thresholds once.

``select_rows`` applies a rule to every row of an (R, N) array at once, for
the trial-batched engine; each row's mask marks exactly the set the rule
returns for that row.  The step-up rules share one row-wise core.
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
    rule: str
    thresholds: tuple[float, ...]


def _check_p(p: Sequence[float]) -> None:
    for v in p:
        # 0.0 is tolerated as extreme-evidence underflow of exp(-log max wealth).
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"p-value {v!r} out of [0,1]")


def _check_e(e: Sequence[float]) -> None:
    for v in e:
        if not v >= 0.0:
            raise OutOfRange(f"e-value {v!r} not a nonnegative real")


def _checked_array(values: Sequence[float], check, in_domain) -> np.ndarray:
    """``values`` as float64, after the same range check ``check`` makes."""
    x = np.array(values, dtype=np.float64)
    if not in_domain(x).all():
        check(values)  # raises on the first value out of domain
    return x


def _p_in_domain(x: np.ndarray) -> np.ndarray:
    return (x >= 0.0) & (x <= 1.0)


def _e_in_domain(x: np.ndarray) -> np.ndarray:
    return x >= 0.0


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


# Per-rank thresholds depend only on (n, delta); each rule computes them once
# as the reported tuple plus a float64 copy for the vectorised compare.


@lru_cache(maxsize=64)
def _bh_thresholds(n: int, delta: float) -> tuple[tuple[float, ...], np.ndarray]:
    thr = tuple((k + 1) * delta / n for k in range(n))
    return thr, _frozen(thr)


@lru_cache(maxsize=64)
def _by_thresholds(n: int, delta: float) -> tuple[tuple[float, ...], np.ndarray]:
    h_n = sum(1.0 / k for k in range(1, n + 1))
    thr = tuple((k + 1) * delta / (n * h_n) for k in range(n))
    return thr, _frozen(thr)


@lru_cache(maxsize=64)
def _ebh_thresholds(n: int, delta: float) -> tuple[tuple[float, ...], np.ndarray]:
    thr = tuple(n / ((k + 1) * delta) for k in range(n))
    return thr, _frozen(thr)


def _step_up_rows(ranked: np.ndarray, passed: np.ndarray, literal: bool) -> np.ndarray:
    """(R, N) mask of certified ids given each row's ranking and each rank's
    own predicate.  The closure keeps every rank at or below a passing one."""
    if not literal:
        passed = np.logical_or.accumulate(passed[:, ::-1], axis=1)[:, ::-1]
    selected = np.empty(passed.shape, dtype=bool)
    np.put_along_axis(selected, ranked, passed, axis=1)
    return selected


def _ranked_rows(x: np.ndarray, thr_arr: np.ndarray, ascending: bool, literal: bool) -> np.ndarray:
    """Step-up over ascending p (``ascending``) or descending e, row-wise.

    A stable sort keeps tied values in ascending id order."""
    ranked = np.argsort(x if ascending else -x, axis=1, kind="stable")
    ordered = np.take_along_axis(x, ranked, axis=1)
    passed = ordered <= thr_arr if ascending else ordered >= thr_arr
    return _step_up_rows(ranked, passed, literal)


def _one_row(x: np.ndarray, thr_arr: np.ndarray, ascending: bool, literal: bool) -> frozenset[int]:
    return frozenset(np.flatnonzero(_ranked_rows(x[None, :], thr_arr, ascending, literal)[0]).tolist())


def bonferroni(p: Sequence[float], delta: float) -> SelectionResult:
    """Select {i: p_i <= delta / N}."""
    _check_p(p)
    n = len(p)
    thr = delta / n
    selected = frozenset(i for i, v in enumerate(p) if v <= thr)
    return SelectionResult(selected, "bonferroni", (thr,) * n)


def fixed_sequence(p: Sequence[float], order: Sequence[int], delta: float) -> SelectionResult:
    """Select the longest prefix of ``order`` with every p <= delta."""
    _check_p(p)
    n = len(p)
    check_order(tuple(order), n)
    selected: list[int] = []
    for i in order:
        if p[i] <= delta:
            selected.append(i)
        else:
            break
    return SelectionResult(frozenset(selected), "fixed_sequence", (delta,) * n)


def bh(p: Sequence[float], delta: float, literal: bool = False) -> SelectionResult:
    """Step-up over ascending p with per-rank threshold k * delta / N."""
    thr, thr_arr = _bh_thresholds(len(p), delta)
    x = _checked_array(p, _check_p, _p_in_domain)
    return SelectionResult(_one_row(x, thr_arr, True, literal), "bh", thr)


def by(p: Sequence[float], delta: float, literal: bool = False) -> SelectionResult:
    """bh with every threshold shrunk by the harmonic sum H_N."""
    thr, thr_arr = _by_thresholds(len(p), delta)
    x = _checked_array(p, _check_p, _p_in_domain)
    return SelectionResult(_one_row(x, thr_arr, True, literal), "by", thr)


def ebh(e: Sequence[float], delta: float, literal: bool = False) -> SelectionResult:
    """Step-up over descending e with per-rank threshold N / (k * delta)."""
    thr, thr_arr = _ebh_thresholds(len(e), delta)
    x = _checked_array(e, _check_e, _e_in_domain)
    return SelectionResult(_one_row(x, thr_arr, False, literal), "ebh", thr)


def select_rows(
    rule: SelectionRuleName,
    values: np.ndarray,
    delta: float,
    literal: bool = False,
    order: Sequence[int] | None = None,
) -> np.ndarray:
    """The (R, N) mask of each row's certified set under ``rule``.

    ``values`` holds p-values, or e-values for EBH, one row per trial, in
    their domains (the engine derives them from log wealth); ``order`` is
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
        return _ranked_rows(values, _ebh_thresholds(n, delta)[1], False, literal)
    thresholds = _bh_thresholds if rule is SelectionRuleName.BH else _by_thresholds
    return _ranked_rows(values, thresholds(n, delta)[1], True, literal)
