"""Synthetic sources, trial scoring, and single-arm runs on the batched engine."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import recorded

from ecalib import simharness
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
from ecalib.errors import InvalidConfig
from ecalib.orchestrator import run_ltt
from ecalib.simharness import (
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    PointMass,
    SyntheticSpec,
    derive_reliable,
    run_trials,
    sample_risk,
)


def full_batch_config(n, alpha, delta, t_max, d_stop, **overrides):
    base = CalibrationConfig(
        n_candidates=n,
        alpha=alpha,
        delta=delta,
        direction=Direction.RISK_BELOW,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=n),
        betting=BettingSpec(BettingStrategy.MAX),
        t_max=t_max,
        d_stop=d_stop,
        seed=0,
    )
    return dataclasses.replace(base, **overrides)


class TestDistributions:
    def test_point_mass_ignores_uniform(self):
        arm = PointMass(0.37)
        assert arm.mean == 0.37
        assert (PointMass.sample(np.arange(10) / 10.0, arm.value) == 0.37).all()
        assert arm.cdf_at(0.37) == 1.0
        assert arm.cdf_at(0.369) == 0.0

    def test_bernoulli_edge_cases(self):
        u = np.arange(100) / 100.0
        assert (Bernoulli.sample(u, 0.0) == 0.0).all()
        assert (Bernoulli.sample(u, 1.0) == 1.0).all()

    # The library refuses what a config file refuses: each violation begins
    # with the field's name, and parse_config prefixes the object's path.
    @pytest.mark.parametrize("make, violations", [
        (lambda: Bernoulli(-0.5), ["p -0.5 out of [0,1]"]),
        (lambda: Bernoulli(2.0), ["p 2.0 out of [0,1]"]),
        (lambda: PointMass(math.nan), ["value nan out of [0,1]"]),
        (lambda: Beta(0.0, math.inf), ["a 0.0 must be finite and > 0", "b inf must be finite and > 0"]),
        (lambda: SyntheticSpec((Bernoulli(0.5),), quantile_threshold=1.5), ["quantile_threshold 1.5 out of [0,1]"]),
        (lambda: CompositeSyntheticSpec(()), ["metrics must be nonempty and equally sized"]),
        # A field of the wrong type is named, and its range never compared;
        # a bool is no number.
        (lambda: Bernoulli(True), ["p must be a number, got True"]),
        (lambda: Beta("2", 2.0), ["a must be a number, got '2'"]),
        (lambda: Beta(None, 1.0), ["a must be a number, got None"]),
        (lambda: Beta(None, -1.0), ["a must be a number, got None", "b -1.0 must be finite and > 0"]),
        (lambda: SyntheticSpec((Bernoulli(0.5),), shared_draw=1), ["shared_draw must be a boolean, got 1"]),
        (lambda: SyntheticSpec((Bernoulli(0.5),), quantile_threshold="0.5"),
         ["quantile_threshold must be a number or None, got '0.5'"]),
        # The arms are a nonempty tuple of the distribution families.
        (lambda: SyntheticSpec((0.1,)), ["arms[0] must be a Bernoulli, Beta or PointMass, got 0.1"]),
        (lambda: SyntheticSpec(()), ["arms must be nonempty"]),
        (lambda: SyntheticSpec([Bernoulli(0.5)]), ["arms must be a tuple, got [Bernoulli(p=0.5)]"]),
        (lambda: CompositeSyntheticSpec((Bernoulli(0.5),)),
         ["metrics[0] must be a SyntheticSpec, got Bernoulli(p=0.5)"]),
    ])
    def test_out_of_domain_parameters_refused(self, make, violations):
        with pytest.raises(InvalidConfig) as exc:
            make()
        assert exc.value.violations == violations

    def test_bernoulli_law(self):
        spec = SyntheticSpec((Bernoulli(0.3),))
        n = 20_000
        hits = sum(sample_risk(spec, 0, t, base_seed=17) for t in range(1, n + 1))
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) <= 3.0 * sigma

    def test_beta_law(self):
        arm = Beta(2.0, 5.0)
        spec = SyntheticSpec((arm,))
        n = 20_000
        draws = [sample_risk(spec, 0, t, base_seed=23) for t in range(1, n + 1)]
        assert all(0.0 <= x <= 1.0 for x in draws)
        sd = math.sqrt(2.0 * 5.0 / (7.0**2 * 8.0))
        assert abs(sum(draws) / n - arm.mean) <= 3.0 * sd / math.sqrt(n)
        # empirical CDF at an interior point against the analytic one
        ecdf = sum(x <= 0.3 for x in draws) / n
        p = arm.cdf_at(0.3)
        assert abs(ecdf - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_quantile_reduction_matches_raw_draw(self):
        raw_spec = SyntheticSpec((Beta(2.0, 5.0),))
        ind_spec = SyntheticSpec((Beta(2.0, 5.0),), quantile_threshold=0.3)
        assert ind_spec.means() == (Beta(2.0, 5.0).cdf_at(0.3),)
        for t in range(1, 300):
            raw = sample_risk(raw_spec, 0, t, base_seed=5)
            ind = sample_risk(ind_spec, 0, t, base_seed=5)
            assert ind == (1.0 if raw <= 0.3 else 0.0)

    def test_shared_draw_couples_ids(self):
        coupled = SyntheticSpec((Bernoulli(0.5), Bernoulli(0.5)), shared_draw=True)
        split = SyntheticSpec((Bernoulli(0.5), Bernoulli(0.5)))
        assert all(
            sample_risk(coupled, 0, t, base_seed=9) == sample_risk(coupled, 1, t, base_seed=9)
            for t in range(1, 51)
        )
        assert any(
            sample_risk(split, 0, t, base_seed=9) != sample_risk(split, 1, t, base_seed=9)
            for t in range(1, 51)
        )


class TestDeriveReliable:
    def test_single_metric_boundary(self):
        spec = SyntheticSpec((Bernoulli(0.1), Bernoulli(0.5), Bernoulli(0.3)))
        cfg = full_batch_config(3, alpha=0.3, delta=0.1, t_max=10, d_stop=3)
        assert derive_reliable(cfg, spec) == frozenset({0, 2})

    def test_composite_is_the_intersection(self):
        spec = CompositeSyntheticSpec(
            (
                SyntheticSpec((Bernoulli(0.1), Bernoulli(0.1), Bernoulli(0.9))),
                SyntheticSpec((Bernoulli(0.05), Bernoulli(0.9), Bernoulli(0.05))),
            )
        )
        cfg = full_batch_config(
            3,
            alpha=0.2,
            delta=0.1,
            t_max=10,
            d_stop=3,
            extra_metrics=(MetricSpec(alpha=0.2, direction=Direction.RISK_BELOW),),
        )
        assert derive_reliable(cfg, spec) == frozenset({0})

    def test_metric_count_mismatch_rejected(self):
        spec = CompositeSyntheticSpec(
            (
                SyntheticSpec((Bernoulli(0.1),)),
                SyntheticSpec((Bernoulli(0.2),)),
            )
        )
        cfg = full_batch_config(1, alpha=0.2, delta=0.1, t_max=10, d_stop=1)
        with pytest.raises(InvalidConfig) as exc:
            derive_reliable(cfg, spec)
        assert exc.value.violations == ["source metric count disagrees with config"]


class TestSourceAgreesWithConfig:
    """run_trials refuses a spec whose arm or metric count is not the
    config's, with the violations a config file gets, before any block."""

    @pytest.mark.parametrize("arms", [3, 7])
    @pytest.mark.parametrize("reliable", [None, frozenset({0})])
    def test_arm_count(self, arms, reliable):
        cfg = full_batch_config(5, alpha=0.2, delta=0.1, t_max=10, d_stop=5)
        spec = SyntheticSpec((Bernoulli(0.1),) * arms)
        with pytest.raises(InvalidConfig) as exc:
            run_trials(cfg, spec, M=2, reliable=reliable)
        assert exc.value.violations == ["source arm count disagrees with n_candidates"]

    @pytest.mark.parametrize("reliable", [None, frozenset({0})])
    def test_metric_count(self, reliable):
        cfg = full_batch_config(2, alpha=0.2, delta=0.1, t_max=10, d_stop=2)
        spec = CompositeSyntheticSpec((SyntheticSpec((Bernoulli(0.1),) * 2),) * 2)
        with pytest.raises(InvalidConfig) as exc:
            run_trials(cfg, spec, M=2, reliable=reliable)
        assert exc.value.violations == ["source metric count disagrees with config"]

    def test_config_checked_first(self):
        cfg = full_batch_config(5, alpha=0.2, delta=0.1, t_max=2.5, d_stop=5)
        with pytest.raises(InvalidConfig) as exc:
            run_trials(cfg, SyntheticSpec((Bernoulli(0.1),) * 5), M=2)
        assert exc.value.violations == ["t_max must be an integer, got 2.5"]


class TestScoringBookkeeping:
    """Point-mass arms make every trial identical, so metrics are exact."""

    def spec_and_config(self, d_stop=3):
        spec = SyntheticSpec((PointMass(0.0), PointMass(0.0), PointMass(1.0)))
        cfg = full_batch_config(3, alpha=0.5, delta=0.1, t_max=30, d_stop=d_stop)
        return spec, cfg

    def test_truth_scoring_is_clean(self):
        spec, cfg = self.spec_and_config()
        summ = run_trials(cfg, spec, M=3, base_seed=0)
        assert summ.M == 3
        assert summ.fwer_hat == 0.0
        assert summ.fdr_hat_unconditional == 0.0
        assert summ.fdr_hat_conditional == 0.0
        assert summ.tpr_hat == 1.0
        assert summ.tpr_trials == (1.0, 1.0, 1.0)
        assert summ.mean_stop_round == 30.0
        assert summ.mean_queries == 90.0
        assert summ.stop_reason_counts == {"reached_t_max": 3}
        assert summ.set_size_curve[-1] == 2.0
        assert summ.tpr_curve[-1] == 1.0
        # wealth doubles per round: certification lands at round 5 (2^5 > 30)
        assert summ.tpr_curve[3] == 0.0
        assert summ.tpr_curve[4] == 1.0

    def test_reliable_override_flips_one_arm_to_false(self):
        spec, cfg = self.spec_and_config()
        summ = run_trials(cfg, spec, M=3, base_seed=0, reliable=frozenset({0}))
        assert summ.fwer_hat == 1.0
        assert summ.fdr_hat_unconditional == pytest.approx(0.5)
        assert summ.fdr_hat_conditional == pytest.approx(0.5)
        assert summ.tpr_hat == 1.0
        assert summ.fwer_curve[-1] == 1.0

    def test_wider_reliable_set_dilutes_tpr(self):
        spec, cfg = self.spec_and_config()
        summ = run_trials(cfg, spec, M=2, base_seed=0, reliable=frozenset({0, 1, 2}))
        assert summ.fwer_hat == 0.0
        assert summ.tpr_hat == pytest.approx(2.0 / 3.0)

    def test_early_stop_pads_curves_to_the_horizon(self):
        spec, cfg = self.spec_and_config(d_stop=2)
        summ = run_trials(cfg, spec, M=2, base_seed=0)
        assert summ.stop_reason_counts == {"reached_d": 2}
        assert summ.mean_stop_round == 5.0
        assert summ.mean_queries == 15.0
        assert len(summ.set_size_curve) == 30
        assert summ.set_size_curve[-1] == 2.0  # carried past the stop round
        assert summ.tpr_curve[-1] == 1.0

    def test_m_must_be_positive(self):
        spec, cfg = self.spec_and_config()
        with pytest.raises(InvalidConfig):
            run_trials(cfg, spec, M=0)

    def test_no_reliable_arm_gives_a_nan_tpr(self):
        spec = SyntheticSpec((Bernoulli(0.9), Bernoulli(0.8)))
        cfg = full_batch_config(2, alpha=0.2, delta=0.1, t_max=20, d_stop=2)
        summ = run_trials(cfg, spec, M=2)
        assert math.isnan(summ.tpr_hat)
        assert math.isnan(summ.margins["tpr"])
        assert summ.fwer_hat == 0.0


class TestMetricOrderings:
    def test_fdp_sandwich_on_a_mixed_instance(self):
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.2, 0.55, 0.6, 0.7, 0.8)))
        cfg = full_batch_config(
            6,
            alpha=0.4,
            delta=0.2,
            t_max=200,
            d_stop=6,
            selection_rule=SelectionRuleName.BH,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=1),
            betting=BettingSpec(BettingStrategy.AGRAPA),
        )
        summ = run_trials(cfg, spec, M=40, base_seed=3)
        assert summ.fdr_hat_unconditional <= summ.fwer_hat + 1e-12
        if not math.isnan(summ.fdr_hat_conditional):
            assert summ.fdr_hat_unconditional <= summ.fdr_hat_conditional + 1e-12

    def test_worker_count_does_not_change_the_answer(self):
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(
            3,
            alpha=0.4,
            delta=0.1,
            t_max=60,
            d_stop=3,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1),
            betting=BettingSpec(BettingStrategy.AGRAPA),
        )
        serial = run_trials(cfg, spec, M=6, base_seed=11, workers=1)
        parallel = run_trials(cfg, spec, M=6, base_seed=11, workers=2)
        assert serial == parallel

    def test_blocks_are_split_by_the_processes_that_run(self, monkeypatch):
        # Four workers asked for on one usable CPU: one process runs the
        # trials, so they run as one block, not as four one after another.
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(3, alpha=0.4, delta=0.1, t_max=30, d_stop=2)
        serial = run_trials(cfg, spec, M=7, base_seed=4, workers=1)
        blocks = []
        trial_block = simharness._trial_block

        def counted(args):
            blocks.append(args[3:5])
            return trial_block(args)

        monkeypatch.setattr(simharness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(simharness, "_trial_block", counted)
        assert run_trials(cfg, spec, M=7, base_seed=4, workers=4) == serial
        assert blocks == [(0, 7)]

    def test_accumulator_leaves_the_curves_unchanged(self):
        # Rows stop at d_stop before t_max, so the curves hold their final
        # sets for rounds the run never reached.
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(3, alpha=0.5, delta=0.1, t_max=60, d_stop=1)
        reliable = derive_reliable(cfg, spec)
        results, curves = simharness._trial_block((cfg, spec, 0, 0, 4, reliable))
        assert all(r.T < cfg.t_max for r in results)
        before = curves.copy()
        curves.setflags(write=False)
        acc = simharness.TrialAccumulator(reliable, cfg.t_max)
        for j, result in enumerate(results):
            acc.add(result, curves[0, j], curves[1, j])
        assert (curves == before).all()
        assert acc.summary().M == 4

    def test_blocks_are_capped_by_their_candidates(self, monkeypatch):
        # Three candidates at two metrics are six pairs per trial, so a
        # budget of 14 pairs caps a block at two trials.
        arms = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        spec = CompositeSyntheticSpec((arms, arms))
        cfg = full_batch_config(3, alpha=0.4, delta=0.1, t_max=30, d_stop=2,
                                extra_metrics=(MetricSpec(0.5, Direction.RISK_BELOW),))
        unsplit = run_trials(cfg, spec, M=7, base_seed=4)
        blocks = []
        trial_block = simharness._trial_block

        def counted(args):
            blocks.append(args[4] - args[3])
            return trial_block(args)

        monkeypatch.setattr(simharness, "BLOCK_PAIRS", 14)
        monkeypatch.setattr(simharness, "_trial_block", counted)
        assert run_trials(cfg, spec, M=7, base_seed=4) == unsplit
        assert blocks == [1, 2, 2, 2]

    def test_block_holds_its_curves_and_the_engine_state(self):
        # The frozen 20-arm acceptance instance, stopping at d_stop = 3
        # within a few thousand of its 20,000 rounds: each set change is
        # written through to t_max, so the block holds no round-indexed
        # array beside its two curves.
        means = (0.05, 0.06, 0.07, 0.08, 0.11, 0.12, 0.13, 0.18) + tuple(0.25 + 0.35 * i / 11 for i in range(12))
        spec = SyntheticSpec(tuple(Bernoulli(m) for m in means))
        cfg = full_batch_config(20, alpha=0.2, delta=0.1, t_max=20_000, d_stop=3,
                                acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1),
                                betting=BettingSpec(BettingStrategy.AGRAPA), seed=7)
        reliable = derive_reliable(cfg, spec)
        simharness._trial_block((cfg, spec, 7, 0, 2, reliable))  # first-call imports and caches
        tracemalloc.start()
        try:
            results, curves = simharness._trial_block((cfg, spec, 7, 0, 64, reliable))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.T < cfg.t_max for r in results)
        assert peak <= 1.5 * curves.nbytes

    # The CPUs are the process's affinity set where the platform has one
    # (None: it has none), else the machine's count (None: unknown).
    @pytest.mark.parametrize("affinity, cpus, size", [
        ({0, 1, 2}, 64, 3),
        ({0}, 64, None),
        (None, 3, 3),
        (None, None, None),
    ])
    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch, affinity, cpus, size):
        # A stand-in pool records its size and maps in process, so no
        # process starts however many workers are asked for.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(3, alpha=0.4, delta=0.1, t_max=20, d_stop=3)
        serial = run_trials(cfg, spec, M=40, base_seed=2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        if affinity is None:
            monkeypatch.delattr(simharness.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(simharness.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(simharness.os, "cpu_count", lambda: cpus)
        assert run_trials(cfg, spec, M=40, base_seed=2, workers=1000) == serial
        assert sizes == ([size] if size else [])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(3, alpha=0.4, delta=0.1, t_max=5, d_stop=3)
        with pytest.raises(InvalidConfig, match=f"workers {workers} must be >= 1"):
            run_trials(cfg, spec, M=2, workers=workers)

    @pytest.mark.parametrize("t_max", [simharness.MAX_T_MAX + 1, 10**30])
    def test_t_max_beyond_the_monte_carlo_arrays_rejected(self, t_max):
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(3, alpha=0.4, delta=0.1, t_max=t_max, d_stop=3)
        with pytest.raises(InvalidConfig, match=f"t_max must be <= {simharness.MAX_T_MAX} .* got {t_max}"):
            run_trials(cfg, spec, M=1)

    @pytest.mark.parametrize("M", [simharness.MAX_TRIALS + 1, 10**12])
    def test_trials_beyond_the_limit_rejected(self, M):
        # Refused before any block is planned: 10**12 trials would have
        # _blocks list about 2 * 10**9 block edges first.
        spec = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))
        cfg = full_batch_config(3, alpha=0.4, delta=0.1, t_max=5, d_stop=3)
        with pytest.raises(InvalidConfig, match=re.escape(f"M {M} out of [1, {simharness.MAX_TRIALS}]")):
            run_trials(cfg, spec, M=M)


class TestRunArgumentsRefused:
    """run_trials' arguments and a synthetic source's seed and trials go
    through the domain table: a value of another type or out of range is
    refused, never run as the integer it would alias."""

    SPEC = SyntheticSpec(tuple(Bernoulli(p) for p in (0.1, 0.3, 0.7)))

    def config(self, **overrides):
        return full_batch_config(3, **{"alpha": 0.4, "delta": 0.1, "t_max": 5, "d_stop": 3, **overrides})

    @pytest.mark.parametrize("arguments, violation", [
        ({"M": 2.5}, "M must be an integer, got 2.5"),
        ({"M": True}, "M must be an integer, got True"),
        ({"M": "3"}, "M must be an integer, got '3'"),
        ({"workers": 1.5}, "workers must be an integer, got 1.5"),
        ({"M": 10**5000}, f"M <a 16,610-bit integer> out of [1, {simharness.MAX_TRIALS}]"),
        ({"workers": -(10**5000)}, "workers <a negative 16,610-bit integer> must be >= 1"),
        ({"base_seed": 2**70}, "base_seed 1180591620717411303424 out of [0, 2**64)"),
        ({"base_seed": -1}, "base_seed -1 out of [0, 2**64)"),
        ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
        ({"base_seed": True}, "base_seed must be an integer, got True"),
    ])
    def test_run_trials(self, arguments, violation):
        with pytest.raises(InvalidConfig) as exc:
            run_trials(self.config(), self.SPEC, **{"M": 2, **arguments})
        assert exc.value.violations == [violation]

    def test_t_max_too_long_to_print(self):
        with pytest.raises(InvalidConfig) as exc:
            run_trials(self.config(t_max=10**5000), self.SPEC, M=1)
        assert exc.value.violations == [
            f"t_max must be <= {simharness.MAX_T_MAX} for Monte Carlo trials, got <a 16,610-bit integer>"]

    def test_numpy_integers_are_integers(self):
        want = run_trials(self.config(), self.SPEC, M=3, base_seed=5)
        assert run_trials(self.config(), self.SPEC, M=np.int64(3), base_seed=np.uint64(5), workers=np.int8(1)) == want

    @pytest.mark.parametrize("make, violation", [
        (lambda spec: spec.make_source(0, 1.5), "trial must be an integer, got 1.5"),
        (lambda spec: spec.make_source(0, 2**64), "trial 18446744073709551616 out of [0, 2**64)"),
        (lambda spec: spec.make_source(-1, 0), "base_seed -1 out of [0, 2**64)"),
        (lambda spec: spec.make_block(2**70, np.arange(2)), "base_seed 1180591620717411303424 out of [0, 2**64)"),
        (lambda spec: spec.make_block(0, np.array([0.0, 1.5])),
         "trials[0] must be an integer, got 0.0 (1 more of trials outside)"),
        (lambda spec: spec.make_block(0, [0, -1]), "trials[1] -1 out of [0, 2**64)"),
        (lambda spec: spec.make_block(0, [0, 2**70]), "trials[1] 1180591620717411303424 out of [0, 2**64)"),
        (lambda spec: spec.make_block(0, np.array([True])), "trials[0] must be an integer, got True"),
    ])
    def test_synthetic_sources(self, make, violation):
        with pytest.raises(InvalidConfig) as exc:
            make(self.SPEC)
        assert exc.value.violations == [violation]

    def test_a_numpy_trial_draws_its_own_risks(self):
        got = self.SPEC.make_source(np.uint64(4), np.int64(1)).query(1, [0, 1, 2], "")
        assert got == self.SPEC.make_source(4, 1).query(1, [0, 1, 2], "")


class TestSingleArmLane:
    """One arm on the trial-batched engine, as criteria 5 and 7 run it."""

    @pytest.mark.parametrize(
        "strategy",
        [BettingStrategy.UNIT, BettingStrategy.MAX, BettingStrategy.AGRAPA, BettingStrategy.ONS],
    )
    def test_paths_match_the_scalar_engine(self, single_arm, strategy):
        mean, alpha, rounds, seed = 0.35, 0.5, 120, 41
        cfg, runs = single_arm(mean, alpha, BettingSpec(strategy), rounds, 3, seed, record=True)
        spec = SyntheticSpec((Bernoulli(mean),))
        for trial, run in enumerate(runs):
            result = recorded(run_ltt, cfg, spec.make_source(seed, trial), rounds, trial=trial)
            assert len(run.records) == rounds
            for got, want in zip(run.records, result.records):
                assert got.risks == want.risks
                assert got.wealth[0].hex() == want.wealth[0].hex()
                assert got.anytime_p[0].hex() == want.anytime_p[0].hex()
            assert run.selected == result.selected

    def test_summary_arrays_are_consistent(self, single_arm):
        _, runs = single_arm(0.4, 0.5, BettingSpec(BettingStrategy.ONS), 200, 50, 7, record=True)
        for run in runs:
            assert run.T == 200
            assert run.final_wealth == run.records[-1].wealth
            assert run.final_anytime_p[0] == min(r.anytime_p[0] for r in run.records)
            best = max(1.0, max(r.wealth[0] for r in run.records))
            assert math.isclose(run.final_anytime_p[0], 1.0 / best, rel_tol=1e-12)

    def test_boundary_null_rarely_beats_the_wealth_bar(self, single_arm):
        # mean == alpha: the wealth process is a supermartingale, so
        # P(sup wealth >= 1/delta) <= delta.
        delta, trials = 0.1, 2000
        _, runs = single_arm(0.5, 0.5, BettingSpec(BettingStrategy.ONS), 400, trials, 19)
        rate = float(np.mean([run.final_anytime_p[0] <= delta for run in runs]))
        assert rate <= delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
