"""End-to-end engine behavior on small, hand-checkable instances."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from conftest import LAYOUTS, one_run_layout, recorded

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
from ecalib.orchestrator import StopReason, run_altt, run_block, run_ltt
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
        result = recorded(run_altt, config_n1(), ConstantSource([0.0]))
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
        a = recorded(run_altt, cfg, spec.make_source(3, 0), trial=0)
        b = recorded(run_altt, cfg, spec.make_source(3, 0), trial=0)
        assert a.selected == b.selected
        assert a.T == b.T
        assert a.records == b.records
        assert a.final_wealth == b.final_wealth

    def test_untested_ids_keep_their_exact_wealth(self):
        cfg, spec = self.small_instance()
        result = recorded(run_altt, cfg, spec.make_source(3, 1), trial=1)
        prev = (1.0,) * cfg.n_candidates
        for rec in result.records:
            for i in range(cfg.n_candidates):
                if i not in rec.tested:
                    assert rec.wealth[i] == prev[i]  # bitwise, no drift
            prev = rec.wealth

    def test_fwer_certified_sets_never_shrink(self):
        cfg, spec = self.small_instance()
        for trial in range(5):
            result = recorded(run_altt, cfg, spec.make_source(9, trial), trial=trial)
            prev = frozenset()
            for rec in result.records:
                assert rec.selected >= prev
                prev = rec.selected

    def test_different_seeds_differ(self):
        cfg, spec = self.small_instance()
        a = recorded(run_altt, cfg, spec.make_source(3, 0), trial=0)
        b = recorded(run_altt, dataclasses.replace(cfg, seed=12), spec.make_source(4, 0), trial=0)
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

    # The round count is an integer, never a float or a bool that range()
    # would refuse or run as 1.
    @pytest.mark.parametrize("T, violation", [
        (2.5, "T must be an integer, got 2.5"),
        (True, "T must be an integer, got True"),
        (-1, "T -1 must be >= 0"),
    ])
    def test_round_count_in_its_domain(self, T, violation):
        with pytest.raises(InvalidConfig) as exc:
            run_ltt(config_n1(), ConstantSource([0.0]), T)
        assert exc.value.violations == [violation]

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

        result = recorded(run_altt, cfg, TwoMetricSource())
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
                result = recorded(run_altt, cfg, spec.make_source(cfg.seed, trial), trial=trial)
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


TWO_METRICS = (MetricSpec(alpha=0.5, direction=Direction.RISK_BELOW),)

# Answers to the first round of a 3-candidate full-batch run, one per engine:
# (extra metrics, the answer of a one-run source, that of a block source,
# whose rows are the (id, metric) risks of each tested pair).
MALFORMED_ANSWERS = {
    "none_among_risks": ((), [0.1, None, 0.2], [[0.1], [None], [0.2]]),
    "nested_risk": ((), [0.1, 0.2, [0.3]], [[0.1], [0.2], [[0.3]]]),
    "a_number": ((), 5, 5),
    "strings": ((), ["x", "y", "z"], [["x"], ["y"], ["z"]]),
    "too_few": ((), [0.1, 0.2], [[0.1], [0.2]]),
    "out_of_range": ((), [0.1, 1.5, 0.2], [[0.1], [1.5], [0.2]]),
    "two_out_of_range": ((), [0.1, 1.5, -0.2], [[0.1], [1.5], [-0.2]]),
    "second_metric_out_of_range": (TWO_METRICS, [(0.1, 0.2), (0.3, 1.5), (-0.1, 0.5)],
                                   [[0.1, 0.2], [0.3, 1.5], [-0.1, 0.5]]),
    "nan": ((), [0.1, math.nan, 0.2], [[0.1], [math.nan], [0.2]]),
    "int_too_large": ((), [0.1, 10**400, 0.2], [[0.1], [10**400], [0.2]]),
    "int_too_large_second_metric": (TWO_METRICS, [(0.1, 0.2), (0.3, 10**400), (0.4, 0.5)],
                                    [[0.1, 0.2], [0.3, 10**400], [0.4, 0.5]]),
    "other_engine_shape": ((), [(0.1,), (0.2,), (0.3,)], [0.1, 0.2, 0.3]),
    "floats_for_two_metrics": (TWO_METRICS, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
    "one_tuples_for_two_metrics": (TWO_METRICS, [(0.1,), (0.2,), (0.3,)], [[0.1], [0.2], [0.3]]),
    "ragged_for_two_metrics": (TWO_METRICS, [(0.1, 0.2), (0.3,), (0.4, 0.5)], [[0.1, 0.2], [0.3], [0.4, 0.5]]),
}


class TestMalformedAnswers:
    """Whatever a source answers, a malformed answer is SourceFailure
    naming the round, on both engines."""

    def config(self, extra):
        return config_n1(n_candidates=3, d_stop=3, extra_metrics=extra)

    @pytest.mark.parametrize("extra, answer, _", MALFORMED_ANSWERS.values(), ids=MALFORMED_ANSWERS.keys())
    def test_one_run_engine(self, extra, answer, _):
        # Both layouts refuse the answer with the same message.
        class Source:
            def query(self, round_index, ids, token):
                return answer

        messages = []
        for layout in LAYOUTS:
            with one_run_layout(layout), pytest.raises(SourceFailure, match="^round 1: ") as failure:
                run_altt(self.config(extra), Source())
            messages.append(str(failure.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("name, message", [
        ("nan", "round 1: risk nan for id 1 out of [0,1]"),
        ("two_out_of_range", "round 1: risk 1.5 for id 1 out of [0,1]"),
        ("second_metric_out_of_range", "round 1: risk 1.5 for id 1 out of [0,1]"),
        ("too_few", "round 1: source returned 2 values for 3 ids"),
        ("one_tuples_for_two_metrics", "round 1: expected 2 metrics per id"),
        ("int_too_large", "round 1: malformed answer: int too large to convert to float"),
    ])
    def test_the_first_bad_id_is_named(self, name, message):
        extra, answer, block_answer = MALFORMED_ANSWERS[name]

        class Source:
            def query(self, round_index, ids, token):
                return answer

        class Block:
            def query(self, round_index, rows, ids):
                return block_answer

        for layout in LAYOUTS:
            with one_run_layout(layout), pytest.raises(SourceFailure) as failure:
                run_altt(self.config(extra), Source())
            assert str(failure.value) == message
        if name != "too_few":
            with pytest.raises(SourceFailure) as failure:
                run_block(self.config(extra), Block(), [0], 10, True)
            assert str(failure.value) == message

    @pytest.mark.parametrize("extra, _, answer", MALFORMED_ANSWERS.values(), ids=MALFORMED_ANSWERS.keys())
    def test_block_engine(self, extra, _, answer):
        class Block:
            def query(self, round_index, rows, ids):
                return answer

        with pytest.raises(SourceFailure, match="^round 1: "):
            run_block(self.config(extra), Block(), [0], 10, True)


class TestTrialIndices:
    """A trial index keys the run's streams: one of another type or out of
    [0, 2**64) is refused, never run as the trial it would alias."""

    @pytest.mark.parametrize("trial, violation", [
        (1.5, "trial must be an integer, got 1.5"),
        (True, "trial must be an integer, got True"),
        (-1, "trial -1 out of [0, 2**64)"),
        (2**64, "trial 18446744073709551616 out of [0, 2**64)"),
    ])
    def test_one_run(self, trial, violation):
        for run in (run_altt, lambda cfg, source, trial: run_ltt(cfg, source, 3, trial=trial)):
            with pytest.raises(InvalidConfig) as exc:
                run(config_n1(), ConstantSource([0.0]), trial=trial)
            assert exc.value.violations == [violation]

    def test_block(self):
        spec = SyntheticSpec((Bernoulli(0.5),))
        with pytest.raises(InvalidConfig) as exc:
            run_block(config_n1(), spec.make_block(0, [0, 1]), [0, 1.5], 3, True)
        assert exc.value.violations == ["trials[1] must be an integer, got 1.5"]

    def test_a_numpy_trial_is_the_trial_it_equals(self):
        cfg = config_n1(acquisition=AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=1))
        spec = SyntheticSpec((Bernoulli(0.3),))
        want = recorded(run_altt, cfg, spec.make_source(0, 7), trial=7)
        assert recorded(run_altt, cfg, spec.make_source(0, 7), trial=np.uint64(7)) == want


class TestObserverContract:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_observer_reads_float_arrays_and_the_result_holds_floats(self, layout):
        cfg = config_n1(n_candidates=3, d_stop=3, t_max=6)
        seen = []

        def observer(t, tested, risks, wealth, anytime_p, certified):
            seen.extend((wealth, anytime_p))
            assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (3,)
                       for a in (wealth, anytime_p))

        with one_run_layout(layout):
            result = run_altt(cfg, ConstantSource([0.0, 0.5, 1.0]), observer=observer)
        assert len(seen) == 2 * result.T
        for values in (result.final_wealth, result.final_anytime_p):
            assert len(values) == 3 and all(type(v) is float for v in values)


class TestRoundHook:
    """``run_altt``'s observer and the round hook the benchmark harness passes
    beside it, and ``run_block``'s observer."""

    def test_hook_sees_every_round_and_the_final_set(self):
        calls = []
        run_altt(
            config_n1(),
            ConstantSource([0.0]),
            round_hook=lambda t, tested, risks, wealth, anytime_p, sel: calls.append((t, tested, risks, sel)),
        )
        assert [c[0] for c in calls] == [1, 2, 3, 4, 5]
        assert calls[-1][3] == frozenset({0})
        assert all(c[1] == (0,) and c[2] == (0.0,) for c in calls)

    def config(self):
        return CalibrationConfig(
            n_candidates=24,
            alpha=0.3,
            delta=0.1,
            direction=Direction.RISK_BELOW,
            selection_rule=SelectionRuleName.BH,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=20),
            betting=BettingSpec(BettingStrategy.AGRAPA),
            t_max=40,
            d_stop=24,
            seed=5,
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_observer_then_hook_once_per_round(self, layout):
        # As perfbench/harness.py substitutes cli.run_altt: the command
        # passes its observer, the wrapper adds the round hook.
        cfg = self.config()
        calls = []

        def hooked(*args, **kwargs):
            return run_altt(*args, round_hook=lambda t, *_: calls.append(("hook", t)), **kwargs)

        with one_run_layout(layout):
            result = hooked(cfg, SyntheticSpec((Bernoulli(0.5),) * 24).make_source(cfg.seed, 0), trial=0,
                            observer=lambda t, *_: calls.append(("observer", t)))
        assert result.T == cfg.t_max
        assert calls == [(who, t) for t in range(1, cfg.t_max + 1) for who in ("observer", "hook")]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_hook_alone(self, layout):
        cfg = self.config()
        stamps = []
        with one_run_layout(layout):
            result = run_altt(cfg, SyntheticSpec((Bernoulli(0.5),) * 24).make_source(cfg.seed, 0),
                              round_hook=lambda *_: stamps.append(1))
        assert len(stamps) == result.T == cfg.t_max

    def test_block_observer_hears_every_round(self):
        cfg = dataclasses.replace(self.config(), d_stop=2, t_max=120)
        spec = SyntheticSpec((Bernoulli(0.05),) * 2 + (Bernoulli(0.5),) * 22)
        trials = list(range(4))
        calls = []
        results = run_block(cfg, spec.make_block(cfg.seed, trials), trials, cfg.t_max, True,
                            observer=lambda t, rows, ids, risks, moved, *_: calls.append((t, len(moved))))
        stops = [r.T for r in results]
        assert len(set(stops)) > 1 and max(stops) < cfg.t_max
        assert [t for t, _ in calls] == list(range(1, max(stops) + 1))
        assert any(not moved for _, moved in calls)

    @pytest.mark.parametrize("rule", [SelectionRuleName.EBH, SelectionRuleName.BH])
    def test_block_observer_views_are_read_only(self, rule):
        cfg = dataclasses.replace(self.config(), selection_rule=rule, t_max=3)
        trials = [0, 1]
        refused = []

        def observe(t, rows, ids, risks, moved, *views):
            for view in views:
                with pytest.raises(ValueError, match="read-only"):
                    view[0, 0] = view[0, 0]
                refused.append(t)

        run_block(cfg, SyntheticSpec((Bernoulli(0.5),) * 24).make_block(cfg.seed, trials), trials, cfg.t_max,
                  True, observer=observe)
        assert refused == [t for t in range(1, cfg.t_max + 1) for _ in range(3)]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_an_unchanged_set_keeps_its_object(self, layout):
        # e-BH re-selects whenever an e-value moves, nearly every round; a
        # re-selection that returns an equal set hands on the same frozenset,
        # so that the run log formats each distinct set once.
        cfg = dataclasses.replace(self.config(), selection_rule=SelectionRuleName.EBH, t_max=120)
        spec = SyntheticSpec((Bernoulli(0.05),) * 8 + (Bernoulli(0.5),) * 16)
        sets = []
        with one_run_layout(layout):
            run_altt(cfg, spec.make_source(cfg.seed, 0), observer=lambda *args: sets.append(args[-1]))
        assert len(set(sets)) > 2
        assert all((a is b) == (a == b) for a, b in zip(sets, sets[1:]))
