"""End-to-end engine behavior on small, hand-checkable instances."""

from __future__ import annotations

import dataclasses

import pytest

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
from ecalib.errors import InvalidConfig, SourceFailure
from ecalib.orchestrator import StopReason, run_altt, run_ltt
from ecalib.rng import TAG_TOKEN, mix64
from ecalib.simharness import Bernoulli, Beta, CompositeSyntheticSpec, PointMass, SyntheticSpec


class ConstantSource:
    """Risk source answering every query with fixed per-id values."""

    def __init__(self, risks):
        self.risks = risks
        self.queries = []

    def query(self, round_index, ids, token):
        self.queries.append((round_index, tuple(ids), token))
        return [self.risks[i] for i in ids]


def config_n1(**overrides) -> CalibrationConfig:
    base = CalibrationConfig(
        n_candidates=1,
        alpha=0.5,
        delta=0.05,
        direction=Direction.RISK_BELOW,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=1),
        betting=BettingSpec(BettingStrategy.MAX),
        t_max=10,
        d_stop=1,
        seed=0,
    )
    return dataclasses.replace(base, **overrides)


class TestSingleArmWalkthrough:
    """Perfect arm, near-boundary bet: wealth doubles until p crosses delta."""

    def test_wealth_and_p_trajectory(self):
        result = run_altt(config_n1(), ConstantSource([0.0]))
        mu = 2.0 * (1.0 - 1e-6)
        factor = 1.0 + 0.5 * mu
        assert result.T == 5
        assert result.stop_reason is StopReason.REACHED_D
        assert result.selected == frozenset({0})
        assert result.n_queries == 5
        for t, rec in enumerate(result.records, start=1):
            assert rec.t == t
            assert rec.tested == (0,)
            assert rec.wealth[0] == pytest.approx(factor**t, rel=1e-12)
            assert rec.anytime_p[0] == pytest.approx(factor**-t, rel=1e-12)
        # p first reaches 0.05 at t=5 (1/32 < 0.05 < 1/16), not earlier
        assert result.records[3].selected == frozenset()
        assert result.records[4].selected == frozenset({0})

    def test_stop_at_d_takes_precedence_over_t_max(self):
        result = run_altt(config_n1(t_max=5), ConstantSource([0.0]))
        assert result.T == 5
        assert result.stop_reason is StopReason.REACHED_D

    def test_t_max_exhaustion_on_a_null(self):
        result = run_altt(config_n1(t_max=6), ConstantSource([1.0]))
        assert result.T == 6
        assert result.stop_reason is StopReason.REACHED_T_MAX
        assert result.selected == frozenset()
        # every losing round multiplies wealth by 1 - 0.5 * mu ~ 1e-6
        assert result.final_wealth[0] < 1e-20
        assert result.final_anytime_p[0] == 1.0

    def test_round_tokens_and_sequence(self):
        source = ConstantSource([0.0])
        run_altt(config_n1(), source)
        rounds = [q[0] for q in source.queries]
        assert rounds == [1, 2, 3, 4, 5]
        for t, ids, token in source.queries:
            assert ids == (0,)
            # Sources outside the package get the full keyed token.
            assert token == f"{mix64(TAG_TOKEN, 0, 0, t):016x}"


class TestDeterminismAndIsolation:
    def small_instance(self):
        spec = SyntheticSpec((Bernoulli(0.1), Bernoulli(0.2), Bernoulli(0.6), Bernoulli(0.7)))
        cfg = CalibrationConfig(
            n_candidates=4,
            alpha=0.4,
            delta=0.1,
            direction=Direction.RISK_BELOW,
            selection_rule=SelectionRuleName.BONFERRONI,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=1),
            betting=BettingSpec(BettingStrategy.AGRAPA),
            t_max=120,
            d_stop=4,
            seed=11,
        )
        return cfg, spec

    def test_identical_runs_are_bit_identical(self):
        cfg, spec = self.small_instance()
        a = run_altt(cfg, spec.make_source(3, 0), trial=0)
        b = run_altt(cfg, spec.make_source(3, 0), trial=0)
        assert a.selected == b.selected
        assert a.T == b.T
        assert a.records == b.records
        assert a.final_wealth == b.final_wealth

    def test_untested_ids_keep_their_exact_wealth(self):
        cfg, spec = self.small_instance()
        result = run_altt(cfg, spec.make_source(3, 1), trial=1)
        prev = (1.0,) * cfg.n_candidates
        for rec in result.records:
            for i in range(cfg.n_candidates):
                if i not in rec.tested:
                    assert rec.wealth[i] == prev[i]  # bitwise, no drift
            prev = rec.wealth

    def test_fwer_certified_sets_never_shrink(self):
        cfg, spec = self.small_instance()
        for trial in range(5):
            result = run_altt(cfg, spec.make_source(9, trial), trial=trial)
            prev = frozenset()
            for rec in result.records:
                assert rec.selected >= prev
                prev = rec.selected

    def test_different_seeds_differ(self):
        cfg, spec = self.small_instance()
        a = run_altt(cfg, spec.make_source(3, 0), trial=0)
        b = run_altt(dataclasses.replace(cfg, seed=12), spec.make_source(4, 0), trial=0)
        assert a.records != b.records


class TestNonAdaptiveBaseline:
    def test_matches_adaptive_run_under_deferred_selection(self):
        # Same policy, same seeds, no early stop: the adaptive run's final
        # round must equal the one-shot baseline at T = t_max.
        spec = SyntheticSpec((Bernoulli(0.05), Bernoulli(0.3), Bernoulli(0.6)))
        cfg = CalibrationConfig(
            n_candidates=3,
            alpha=0.4,
            delta=0.1,
            direction=Direction.RISK_BELOW,
            selection_rule=SelectionRuleName.BONFERRONI,
            acquisition=AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=1),
            betting=BettingSpec(BettingStrategy.AGRAPA),
            t_max=60,
            d_stop=3,
            seed=21,
        )
        for trial in range(10):
            one_shot = run_ltt(cfg, spec.make_source(5, trial), 60, trial=trial)
            adaptive = run_altt(cfg, spec.make_source(5, trial), trial=trial)
            if adaptive.stop_reason is StopReason.REACHED_T_MAX:
                assert adaptive.selected == one_shot.selected
                assert adaptive.final_wealth == one_shot.final_wealth

    def test_zero_rounds_selects_nothing(self):
        cfg = config_n1(acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=1))
        result = run_ltt(cfg, ConstantSource([0.0]), 0)
        assert result.T == 0
        assert result.selected == frozenset()
        assert result.n_queries == 0

    def test_rejects_adaptive_policy(self):
        cfg = config_n1(
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.2, batch_size=1)
        )
        with pytest.raises(InvalidConfig):
            run_ltt(cfg, ConstantSource([0.0]), 5)

    def test_rejects_negative_horizon(self):
        with pytest.raises(InvalidConfig):
            run_ltt(config_n1(), ConstantSource([0.0]), -1)

    def test_selection_is_deferred_not_skipped(self):
        result = run_ltt(config_n1(t_max=8), ConstantSource([0.0]), 8)
        assert result.selected == frozenset({0})
        assert result.stop_reason is StopReason.REACHED_T_MAX
        assert result.T == 8


class TestCompositeMetrics:
    def test_merged_wealth_is_the_min_process(self):
        # Metric 1 always wins (risk 0), metric 2 always loses (risk 1);
        # with a unit bet the merged wealth is min(1.5^t, 0.5^t) = 0.5^t.
        cfg = config_n1(
            betting=BettingSpec(BettingStrategy.UNIT),
            extra_metrics=(MetricSpec(alpha=0.5, direction=Direction.RISK_BELOW),),
            t_max=8,
        )

        class TwoMetricSource:
            def query(self, round_index, ids, token):
                return [(0.0, 1.0) for _ in ids]

        result = run_altt(cfg, TwoMetricSource())
        assert result.stop_reason is StopReason.REACHED_T_MAX
        assert result.selected == frozenset()
        for t, rec in enumerate(result.records, start=1):
            assert rec.wealth[0] == pytest.approx(0.5**t, rel=1e-12)
        assert result.final_anytime_p[0] == 1.0

    def test_composite_source_shape_enforced(self):
        cfg = config_n1(
            extra_metrics=(MetricSpec(alpha=0.5, direction=Direction.RISK_BELOW),)
        )

        class ShortRowSource:
            def query(self, round_index, ids, token):
                return [(0.0,) for _ in ids]

        with pytest.raises(SourceFailure):
            run_altt(cfg, ShortRowSource())


class TestAnytimeP:
    """The engine's merged running max is the one source of the p-value."""

    def runs(self):
        arms = (Bernoulli(0.2), Bernoulli(0.35), Bernoulli(0.5), Bernoulli(0.7))
        cfg = CalibrationConfig(
            n_candidates=4,
            alpha=0.4,
            delta=0.1,
            direction=Direction.RISK_BELOW,
            selection_rule=SelectionRuleName.BH,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=2),
            betting=BettingSpec(BettingStrategy.ONS),
            t_max=150,
            d_stop=4,
            seed=31,
        )
        yield cfg, SyntheticSpec(arms)
        composite = dataclasses.replace(
            cfg,
            betting=BettingSpec(BettingStrategy.AGRAPA),
            extra_metrics=(MetricSpec(alpha=0.6, direction=Direction.REWARD_ABOVE),),
        )
        rewards = SyntheticSpec((Beta(6.0, 2.0), Bernoulli(0.55), Beta(2.0, 2.0), Bernoulli(0.8)))
        yield composite, CompositeSyntheticSpec((SyntheticSpec(arms), rewards))

    def test_p_is_one_over_the_running_max_of_logged_wealth(self):
        for cfg, spec in self.runs():
            seen_dip = seen_cap = False
            for trial in range(3):
                result = run_altt(cfg, spec.make_source(cfg.seed, trial), trial=trial)
                run_max = [1.0] * cfg.n_candidates
                for rec in result.records:
                    for i in range(cfg.n_candidates):
                        run_max[i] = max(run_max[i], rec.wealth[i])
                        assert rec.anytime_p[i] == pytest.approx(min(1.0, 1.0 / run_max[i]), rel=1e-12)
                        seen_dip |= 1.0 < run_max[i] and rec.wealth[i] < run_max[i]
                        seen_cap |= rec.wealth[i] < 1.0 and rec.anytime_p[i] == 1.0
                assert result.final_anytime_p == result.records[-1].anytime_p
            # Both behaviours are reached: p keeps the running max after the
            # wealth falls, and stays capped at 1 while wealth is below 1.
            assert seen_dip and seen_cap


class TestSourceValidation:
    def test_wrong_length_rejected(self):
        class ShortSource:
            def query(self, round_index, ids, token):
                return []

        with pytest.raises(SourceFailure):
            run_altt(config_n1(), ShortSource())

    def test_out_of_range_risk_rejected(self):
        with pytest.raises(SourceFailure):
            run_altt(config_n1(), ConstantSource([1.5]))


class TestRoundHook:
    def test_hook_sees_every_round_and_the_final_set(self):
        calls = []
        run_altt(
            config_n1(),
            ConstantSource([0.0]),
            record_rounds=False,
            round_hook=lambda t, tested, sel: calls.append((t, tested, sel)),
        )
        assert [c[0] for c in calls] == [1, 2, 3, 4, 5]
        assert calls[-1][2] == frozenset({0})
        assert all(c[1] == (0,) for c in calls)
