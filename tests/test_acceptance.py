"""Acceptance gate: ten quantitative criteria, one scoreboard line each.

Every test records its verdict through the ``criterion`` fixture (so the
terminal summary prints a PASS/FAIL line per criterion) and then asserts.
All Monte Carlo bounds are stated with their margins; instances, seeds, and
trial counts are frozen so the observed estimates are reproducible bit for
bit on any machine.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time

import numpy as np

from ecalib.cli import main
from ecalib.core import (
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    MetricSpec,
    SelectionRuleName,
)
from ecalib.orchestrator import StopReason, run_altt, run_ltt
from ecalib.runio import replay_check
from ecalib.selection import bh, bonferroni, by, ebh, fixed_sequence
from ecalib.simharness import (
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    SyntheticSpec,
    derive_reliable,
    run_trials,
)

# ---------------------------------------------------------------------------
# Frozen benchmark instance shared by criteria 1-4: 20 Bernoulli arms, 8
# reliable (means 0.05-0.18, a spread of fast and slow certifiers) and 12
# unreliable (means evenly covering 0.25-0.6), alpha=0.2.

RELIABLE_MEANS = (0.05, 0.06, 0.07, 0.08, 0.11, 0.12, 0.13, 0.18)
UNRELIABLE_MEANS = tuple(0.25 + 0.35 * i / 11 for i in range(12))
BENCH_SPEC = SyntheticSpec(tuple(Bernoulli(m) for m in RELIABLE_MEANS + UNRELIABLE_MEANS))
BENCH_SEED = 7
TRIALS = 500


def bench_config(**overrides) -> CalibrationConfig:
    base = CalibrationConfig(
        n_candidates=20,
        alpha=0.2,
        delta=0.1,
        direction=Direction.RISK_BELOW,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1),
        betting=BettingSpec(BettingStrategy.AGRAPA),
        t_max=2000,
        d_stop=20,
        seed=BENCH_SEED,
    )
    return dataclasses.replace(base, **overrides)


def three_sigma(p: float, m: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / m)


def test_criterion_01_fwer_control(criterion):
    t0 = time.perf_counter()
    summ = run_trials(bench_config(), BENCH_SPEC, M=TRIALS, base_seed=BENCH_SEED)
    elapsed = time.perf_counter() - t0
    bound = 0.1 + 0.045
    ok = summ.fwer_hat <= bound and elapsed < 120.0
    criterion(1, ok, f"fwer_hat={summ.fwer_hat:.4f} <= {bound:.3f}, {elapsed:.0f}s")
    assert summ.fwer_hat <= bound
    assert elapsed < 120.0


def test_criterion_02_fdr_control_ebh(criterion):
    cfg = bench_config(selection_rule=SelectionRuleName.EBH)
    summ = run_trials(cfg, BENCH_SPEC, M=TRIALS, base_seed=BENCH_SEED)
    bound = 0.1 + three_sigma(0.1, TRIALS)
    ok = summ.fdr_hat_unconditional <= bound
    criterion(
        2,
        ok,
        f"fdr_u={summ.fdr_hat_unconditional:.4f} <= {bound:.4f}, "
        f"fdr_c={summ.fdr_hat_conditional:.4f}",
    )
    assert ok


def test_criterion_03_adaptivity_benefit(criterion):
    # Fixed budget of 1000 risk queries (t_max=1000, batch 1, no early stop).
    eps_grid = (0.25, 0.5, 0.75, 0.95)
    runs = {}
    for eps in eps_grid:
        cfg = bench_config(
            t_max=1000,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=eps, batch_size=1),
        )
        runs[eps] = run_trials(cfg, BENCH_SPEC, M=TRIALS, base_seed=BENCH_SEED)
    uniform_cfg = bench_config(
        t_max=1000, acquisition=AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=1)
    )
    uniform = run_trials(uniform_cfg, BENCH_SPEC, M=TRIALS, base_seed=BENCH_SEED)

    tpr = [runs[e].tpr_hat for e in eps_grid]
    gap = tpr[0] - uniform.tpr_hat

    # Monotone trend in epsilon, allowing one adjacent inversion within 2
    # standard errors (independent two-sample SE from the per-trial TPRs).
    inversions = []
    for k in range(len(eps_grid) - 1):
        d = tpr[k] - tpr[k + 1]
        if d < 0.0:
            a = np.asarray(runs[eps_grid[k]].tpr_trials)
            b = np.asarray(runs[eps_grid[k + 1]].tpr_trials)
            lim = 2.0 * math.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b))
            inversions.append((eps_grid[k], eps_grid[k + 1], d, lim))
    trend_ok = len(inversions) <= 1 and all(abs(d) <= lim for *_, d, lim in inversions)

    ok = gap >= 0.10 and trend_ok
    curve = ", ".join(f"{e}:{t:.3f}" for e, t in zip(eps_grid, tpr))
    inv_note = (
        "; ".join(f"{a}-{b} d={d:+.4f} lim={lim:.4f}" for a, b, d, lim in inversions) or "none"
    )
    criterion(
        3,
        ok,
        f"tpr {curve}, uniform={uniform.tpr_hat:.3f}, gap={gap:.3f}, inversions: {inv_note}",
    )
    assert gap >= 0.10
    assert trend_ok


def test_criterion_04_deferred_selection_equivalence(criterion):
    cfg = bench_config(
        t_max=500, acquisition=AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=1)
    )
    mismatches = 0
    for trial in range(50):
        adaptive = run_altt(cfg, BENCH_SPEC.make_source(BENCH_SEED, trial), trial=trial)
        one_shot = run_ltt(cfg, BENCH_SPEC.make_source(BENCH_SEED, trial), 500, trial=trial)
        assert adaptive.stop_reason is StopReason.REACHED_T_MAX
        if adaptive.selected != one_shot.selected:
            mismatches += 1
    ok = mismatches == 0
    criterion(4, ok, f"50 seeds, {mismatches} mismatches")
    assert ok


def test_criterion_05_anytime_p_validity(criterion, single_arm):
    # True null: mean 0.3 > alpha 0.2 under RiskBelow; certifying at level x
    # means the running-max wealth ever reached 1/x, i.e. p <= x.
    trials = 10_000
    _, runs = single_arm(0.3, 0.2, BettingSpec(BettingStrategy.ONS), 5000, trials, 13)
    p = np.array([run.final_anytime_p[0] for run in runs])
    results = []
    ok = True
    for x in (0.05, 0.1, 0.25):
        rate = float(np.mean(p <= x))
        bound = x + three_sigma(x, trials)
        results.append(f"x={x}: {rate:.4f}<={bound:.4f}")
        ok = ok and rate <= bound
    criterion(5, ok, "; ".join(results))
    assert ok


# --- criterion 6: selection rules against a predicate-enumeration oracle ----


def oracle_step_up(values, thresholds, passes):
    n = len(values)
    k_star = 0
    for k in range(1, n + 1):
        if sum(1 for v in values if passes(v, thresholds[k - 1])) >= k:
            k_star = k
    if k_star == 0:
        return frozenset()
    return frozenset(i for i, v in enumerate(values) if passes(v, thresholds[k_star - 1]))


def oracle_bh(p, delta):
    n = len(p)
    return oracle_step_up(p, [(k + 1) * delta / n for k in range(n)], lambda v, t: v <= t)


def oracle_by(p, delta):
    n = len(p)
    h_n = sum(1.0 / k for k in range(1, n + 1))
    return oracle_step_up(p, [(k + 1) * delta / (n * h_n) for k in range(n)], lambda v, t: v <= t)


def oracle_ebh(e, delta):
    n = len(e)
    return oracle_step_up(e, [n / ((k + 1) * delta) for k in range(n)], lambda v, t: v >= t)


def oracle_bonferroni(p, delta):
    return frozenset(i for i, v in enumerate(p) if v <= delta / len(p))


def oracle_fixed_sequence(p, order, delta):
    out = []
    for i in order:
        if p[i] > delta:
            break
        out.append(i)
    return frozenset(out)


def random_p(rng: random.Random, n: int, style: int) -> list[float]:
    if style == 0:
        return [rng.random() for _ in range(n)]
    if style == 1:
        return [rng.random() ** 4 for _ in range(n)]
    if style == 2:  # heavy ties, including exact threshold collisions
        grid = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
        return [rng.choice(grid) for _ in range(n)]
    return [rng.random() * 0.02 for _ in range(n)]


def random_e(rng: random.Random, n: int, style: int, delta: float) -> list[float]:
    if style == 0:
        return [rng.expovariate(1.0) for _ in range(n)]
    if style == 1:
        return [rng.choice((0.0, 0.5, 1.0, 10.0, 1e6)) for _ in range(n)]
    # exact e-value thresholds n/(k delta) to stress boundary ties
    return [rng.choice([n / (k * delta) for k in range(1, n + 1)] + [0.0]) for _ in range(n)]


def test_criterion_06_selection_oracle_equivalence(criterion):
    deltas = (0.05, 0.1, 0.3, 0.77)
    checked = mismatches = 0
    for n in range(1, 9):
        for j in range(1000):
            rng = random.Random(n * 100_003 + j)
            delta = deltas[j % 4]
            p = random_p(rng, n, j % 4)
            e = random_e(rng, n, j % 3, delta)
            order = rng.sample(range(n), n)
            pairs = [
                (bonferroni(p, delta).selected, oracle_bonferroni(p, delta)),
                (fixed_sequence(p, order, delta).selected, oracle_fixed_sequence(p, order, delta)),
                (bh(p, delta).selected, oracle_bh(p, delta)),
                (by(p, delta).selected, oracle_by(p, delta)),
                (ebh(e, delta).selected, oracle_ebh(e, delta)),
            ]
            for got, want in pairs:
                checked += 1
                if got != want:
                    mismatches += 1
    ok = mismatches == 0
    criterion(6, ok, f"{checked} rule evaluations, {mismatches} mismatches")
    assert ok


def test_criterion_07_boundary_supermartingale(criterion, single_arm):
    trials = 10_000
    _, runs = single_arm(0.5, 0.5, BettingSpec(BettingStrategy.MAX), 200, trials, 17)
    wealth = np.array([run.final_wealth[0] for run in runs])
    mean = float(np.mean(wealth))
    bound = 1.0 + 3.0 * float(np.std(wealth, ddof=1)) / math.sqrt(trials)
    ok = mean <= bound
    criterion(7, ok, f"mean wealth={mean:.4g} <= {bound:.4g}")
    assert ok


# --- criteria 8-9: frozen composite and quantile instances ------------------

COMPOSITE_SPEC = CompositeSyntheticSpec(
    (
        SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.1, 0.5, 0.6, 0.2, 0.45))),
        SyntheticSpec(tuple(Bernoulli(p) for p in (0.3, 0.7, 0.3, 0.7, 0.45, 0.55))),
    )
)


def composite_config() -> CalibrationConfig:
    return CalibrationConfig(
        n_candidates=6,
        alpha=0.3,
        delta=0.1,
        direction=Direction.RISK_BELOW,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1),
        betting=BettingSpec(BettingStrategy.AGRAPA),
        t_max=1000,
        d_stop=6,
        seed=19,
        extra_metrics=(MetricSpec(alpha=0.5, direction=Direction.RISK_BELOW),),
    )


def test_criterion_08_composite_merge_fwer(criterion):
    cfg = composite_config()
    # candidates must conform on both metrics; arm 1 fails only the second
    # one, which is exactly the case the min-merge has to catch
    assert derive_reliable(cfg, COMPOSITE_SPEC) == frozenset({0, 4})
    summ = run_trials(cfg, COMPOSITE_SPEC, M=TRIALS, base_seed=19)
    bound = 0.1 + three_sigma(0.1, TRIALS)
    ok = summ.fwer_hat <= bound
    criterion(8, ok, f"fwer_hat={summ.fwer_hat:.4f} <= {bound:.4f}, tpr={summ.tpr_hat:.3f}")
    assert ok


QUANTILE_SPEC = SyntheticSpec(
    (Beta(2.0, 8.0), Beta(1.0, 2.5), Beta(5.0, 5.0), Beta(8.0, 2.0)),
    quantile_threshold=0.57,
)


def quantile_config() -> CalibrationConfig:
    # Certify "the 0.9-quantile of the raw risk is <= 0.57" by testing the
    # indicator mean above 0.9 (RewardAbove at level 1-q).
    return CalibrationConfig(
        n_candidates=4,
        alpha=0.9,
        delta=0.1,
        direction=Direction.REWARD_ABOVE,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1),
        betting=BettingSpec(BettingStrategy.AGRAPA),
        t_max=5000,
        d_stop=1,
        seed=29,
    )


def test_criterion_09_quantile_risk_mode(criterion):
    cfg = quantile_config()
    means = QUANTILE_SPEC.means()
    # only the first arm clears the indicator bar; the second sits just below
    assert derive_reliable(cfg, QUANTILE_SPEC) == frozenset({0})
    assert means[0] > 0.9 > means[1] > means[2] > means[3]
    summ = run_trials(cfg, QUANTILE_SPEC, M=TRIALS, base_seed=29)
    bound = 0.1 + three_sigma(0.1, TRIALS)
    ok = summ.fwer_hat <= bound and summ.tpr_hat >= 0.5
    criterion(
        9,
        ok,
        f"false-cert={summ.fwer_hat:.4f} <= {bound:.4f}, conforming certified in "
        f"{summ.tpr_hat:.1%} of trials",
    )
    assert summ.fwer_hat <= bound
    assert summ.tpr_hat >= 0.5


def test_criterion_10_determinism_and_replay(criterion, tmp_path):
    doc = {
        "n_candidates": 20,
        "alpha": 0.2,
        "delta": 0.1,
        "direction": "risk_below",
        "error_metric": "fwer",
        "selection_rule": "bonferroni",
        "acquisition": {"policy": "eps_greedy", "epsilon": 0.25, "batch_size": 1},
        "betting": {"strategy": "agrapa"},
        "t_max": 2000,
        "d_stop": 20,
        "batch_size": 1,
        "seed": BENCH_SEED,
        "source": {
            "kind": "synthetic",
            "arms": [{"dist": "bernoulli", "p": m} for m in RELIABLE_MEANS + UNRELIABLE_MEANS],
        },
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    byte_equal = (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    rounds_checked = replay_check(out_a)

    comp_doc = {
        "n_candidates": 6,
        "alpha": 0.3,
        "delta": 0.1,
        "direction": "risk_below",
        "error_metric": "fwer",
        "selection_rule": "bonferroni",
        "acquisition": {"policy": "eps_greedy", "epsilon": 0.25, "batch_size": 1},
        "betting": {"strategy": "agrapa"},
        "t_max": 1000,
        "d_stop": 6,
        "batch_size": 1,
        "seed": 19,
        "extra_metrics": [{"alpha": 0.5, "direction": "risk_below"}],
        "source": {
            "kind": "composite",
            "metrics": [
                {
                    "kind": "synthetic",
                    "arms": [{"dist": "bernoulli", "p": p} for p in (0.1, 0.1, 0.5, 0.6, 0.2, 0.45)],
                },
                {
                    "kind": "synthetic",
                    "arms": [{"dist": "bernoulli", "p": p} for p in (0.3, 0.7, 0.3, 0.7, 0.45, 0.55)],
                },
            ],
        },
    }
    comp_path = tmp_path / "composite.json"
    comp_path.write_text(json.dumps(comp_doc), encoding="utf-8")
    out_c = tmp_path / "c"
    assert main(["simulate", "--config", str(comp_path), "--out", str(out_c)]) == 0
    comp_checked = replay_check(out_c)

    # repeated Monte Carlo summaries are identical objects as well
    rerun_equal = run_trials(quantile_config(), QUANTILE_SPEC, M=20, base_seed=29) == run_trials(
        quantile_config(), QUANTILE_SPEC, M=20, base_seed=29
    )

    ok = byte_equal and rounds_checked > 0 and comp_checked > 0 and rerun_equal
    criterion(
        10,
        ok,
        f"byte-identical rounds.csv; {rounds_checked}+{comp_checked} rounds replayed exactly",
    )
    assert byte_equal
    assert rerun_equal
