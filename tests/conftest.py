"""Shared fixtures plus the acceptance-criteria report.

Acceptance tests record one line per criterion through the ``criterion``
fixture; the terminal summary prints the collected PASS/FAIL lines after the
normal pytest output so the run ends with a per-criterion scoreboard.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from ecalib.core import (
    AcquisitionPolicy,
    AcquisitionSpec,
    CalibrationConfig,
    Direction,
    SelectionRuleName,
)
from ecalib.orchestrator import RunResult, _exps, run_block
from ecalib.simharness import Bernoulli, SyntheticSpec

CRITERIA_LABELS = {
    1: "FWER control, Bonferroni + aGRAPA + eps-greedy",
    2: "FDR control, eBH",
    3: "adaptivity benefit, TPR vs epsilon at fixed budget",
    4: "deferred-selection equivalence of the non-adaptive baseline",
    5: "anytime p-value validity at the null",
    6: "selection rules match the enumeration oracle",
    7: "boundary mean wealth stays a supermartingale",
    8: "two-metric merged FWER control",
    9: "quantile-risk certification via the indicator reduction",
    10: "determinism and replay",
}

_RESULTS: dict[int, tuple[bool, str]] = {}

# The one-run engine's layouts: "scalar" advances each id's bets in Python,
# "arrays" advances a round's ids as arrays.
LAYOUTS = ("scalar", "arrays")


@contextlib.contextmanager
def one_run_layout(layout: str):
    """``_run`` takes ``layout`` at every batch size inside this context."""
    least = {"scalar": sys.maxsize, "arrays": 0}[layout]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ecalib.orchestrator.ARRAY_BATCH", least)
        yield


@dataclass
class RoundRecord:
    """One round of a run, as the tests compare runs: the tested ids, their
    risks as the one-run engine receives them (a float per id, or a
    K-tuple), every candidate's merged wealth and anytime p-value, and the
    certified set."""

    t: int
    tested: tuple[int, ...]
    risks: tuple
    wealth: tuple[float, ...]
    anytime_p: tuple[float, ...]
    selected: frozenset[int]


@dataclass
class Recorded(RunResult):
    """A RunResult with the RoundRecord of each round it ran."""

    records: tuple[RoundRecord, ...] = ()


def recorded(run, *args, **kwargs) -> Recorded:
    """``run(*args, **kwargs)``, ``run_altt`` or ``run_ltt``, with an
    observer that records every round."""
    records = []

    def observe(t, tested, risks, wealth, anytime_p, certified):
        records.append(RoundRecord(t, tested, risks, tuple(map(float, wealth)), tuple(map(float, anytime_p)), certified))

    result = run(*args, observer=observe, **kwargs)
    return Recorded(**vars(result), records=tuple(records))


def recorded_block(cfg, source, trials, *args, **kwargs) -> list[Recorded]:
    """``run_block``, each row with its rounds recorded as ``recorded``
    records them from the one-run engine."""
    records = [[] for _ in trials]

    def observe(t, rows, ids, risks, moved, merged_lw, anytime_p, certified):
        cuts = np.flatnonzero(np.diff(rows)) + 1
        for row, row_ids, row_risks in zip(rows[np.r_[0, cuts]], np.split(ids, cuts), np.split(risks, cuts)):
            records[row].append(RoundRecord(
                t,
                tuple(row_ids.tolist()),
                tuple(row_risks[:, 0].tolist() if risks.shape[1] == 1 else map(tuple, row_risks.tolist())),
                tuple(_exps(merged_lw[row]).tolist()),
                tuple(anytime_p[row].tolist()),
                frozenset(np.flatnonzero(certified[row]).tolist()),
            ))

    results = run_block(cfg, source, trials, *args, observer=observe, **kwargs)
    return [Recorded(**vars(result), records=tuple(recs)) for result, recs in zip(results, records)]


@pytest.fixture
def single_arm():
    """Trials of one Bernoulli(mean) arm tested in each of ``rounds`` rounds.

    The runs are trials 0..trials-1 of an N=1 config on the trial-batched
    engine, non-adaptive as ``run_ltt`` runs, so no run stops at its first
    certification and each final p-value is 1 / the running max over every
    round.  Returns (config, one RunResult per trial, with its rounds
    recorded if ``record``).
    """

    def run(mean, alpha, betting, rounds, trials, seed, record=False):
        cfg = CalibrationConfig(
            n_candidates=1,
            alpha=alpha,
            delta=0.1,
            direction=Direction.RISK_BELOW,
            selection_rule=SelectionRuleName.BONFERRONI,
            acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH),
            betting=betting,
            t_max=rounds,
            d_stop=1,
            seed=seed,
        )
        ids = np.arange(trials)
        source = SyntheticSpec((Bernoulli(mean),)).make_block(seed, ids)
        return cfg, (recorded_block if record else run_block)(cfg, source, ids, rounds, False)

    return run


@pytest.fixture
def criterion():
    def record(num: int, passed: bool, detail: str = "") -> None:
        _RESULTS[num] = (bool(passed), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not any(num in _RESULTS for num in CRITERIA_LABELS):
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA_LABELS):
        label = CRITERIA_LABELS[num]
        if num in _RESULTS:
            passed, detail = _RESULTS[num]
            status = "PASS" if passed else "FAIL"
            suffix = f"  [{detail}]" if detail else ""
            terminalreporter.write_line(f"{status}  criterion {num:2d}: {label}{suffix}")
        else:
            terminalreporter.write_line(f"MISS  criterion {num:2d}: {label}  [did not run]")
