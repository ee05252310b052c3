"""Configuration and ground-truth helpers."""

from __future__ import annotations

import dataclasses

import pytest

from ecalib.core import (
    MAX_CANDIDATES,
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    ErrorMetric,
    GroundTruth,
    MetricSpec,
    SelectionRuleName,
    check_order,
    reliable_set,
    validate_config,
)
from ecalib.errors import InvalidConfig, InvalidOrder, OutOfRange


def good_config(**overrides) -> CalibrationConfig:
    base = CalibrationConfig(
        n_candidates=5,
        alpha=0.2,
        delta=0.1,
        direction=Direction.RISK_BELOW,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1),
        betting=BettingSpec(BettingStrategy.AGRAPA),
        t_max=100,
        d_stop=5,
        seed=0,
    )
    return dataclasses.replace(base, **overrides)


class TestValidateConfig:
    def test_good_config_passes_through(self):
        cfg = good_config()
        assert validate_config(cfg) is cfg

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"delta": 0.0}, "delta"),
            ({"t_max": 0}, "t_max"),
            ({"d_stop": 0}, "d_stop"),
            ({"d_stop": 6}, "d_stop"),
            ({"acquisition": AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, batch_size=0)}, "batch_size"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"acquisition": AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, batch_size=6)}, "batch_size exceeds"),
            ({"fixed_sequence_order": (0, 1)}, "order"),
        ],
    )
    def test_single_violation_detected(self, overrides, fragment):
        with pytest.raises(InvalidConfig) as exc:
            validate_config(good_config(**overrides))
        assert any(fragment in v for v in exc.value.violations)

    def test_all_violations_reported_at_once(self):
        cfg = good_config(alpha=2.0, delta=-1.0, t_max=0)
        with pytest.raises(InvalidConfig) as exc:
            validate_config(cfg)
        assert len(exc.value.violations) >= 3

    def test_betting_clip_must_stay_below_mu_max(self):
        cfg = good_config(betting=BettingSpec(BettingStrategy.UNIT, clip_fraction=1.0, max_bet_epsilon=1e-18))
        with pytest.raises(InvalidConfig):
            validate_config(cfg)

    @pytest.mark.parametrize("metrics", [1, 2])
    def test_candidates_bounded_by_what_a_run_keeps(self, metrics):
        # Checked on the config alone: no run allocates its state here.
        extra = tuple(MetricSpec(alpha=0.2, direction=Direction.RISK_BELOW) for _ in range(metrics - 1))
        most = MAX_CANDIDATES // metrics
        cfg = good_config(n_candidates=most, extra_metrics=extra)
        assert validate_config(cfg) is cfg
        with pytest.raises(InvalidConfig) as exc:
            validate_config(good_config(n_candidates=most + 1, extra_metrics=extra))
        assert exc.value.violations == [f"n_candidates must be <= {most}, got {most + 1}"]

    # Each wrong type is one violation, reported before any range check:
    # ranges compare, and a bool would pass as the integer it equals.
    @pytest.mark.parametrize(
        "overrides, violation",
        [
            ({"t_max": 2.5}, "t_max must be an integer, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"d_stop": 1.5}, "d_stop must be an integer, got 1.5"),
            ({"n_candidates": True}, "n_candidates must be an integer, got True"),
            ({"acquisition": AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.25, batch_size=1.5)},
             "batch_size must be an integer, got 1.5"),
            ({"fixed_sequence_order": (0, 1, 2, 3, 4.0)}, "fixed_sequence_order[4] must be an integer, got 4.0"),
            ({"alpha": "0.2"}, "alpha must be a number, got '0.2'"),
            ({"delta": None}, "delta must be a number, got None"),
            ({"acquisition": AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=True)},
             "acquisition.epsilon must be a number, got True"),
            ({"betting": BettingSpec(BettingStrategy.AGRAPA, clip_fraction="0.5")},
             "betting.clip_fraction must be a number, got '0.5'"),
            ({"betting": BettingSpec(BettingStrategy.AGRAPA, max_bet_epsilon=None)},
             "betting.max_bet_epsilon must be a number, got None"),
            ({"extra_metrics": (MetricSpec(alpha="0.5", direction=Direction.RISK_BELOW),)},
             "extra_metrics[0].alpha must be a number, got '0.5'"),
            # A field that holds others is checked for its shape before
            # anything in it is read.
            ({"fixed_sequence_order": 5}, "fixed_sequence_order must be a tuple or None, got 5"),
            ({"extra_metrics": 5}, "extra_metrics must be a tuple, got 5"),
            ({"extra_metrics": (0.5,)}, "extra_metrics[0] must be a MetricSpec, got 0.5"),
            ({"acquisition": None}, "acquisition must be an AcquisitionSpec, got None"),
            ({"betting": None}, "betting must be a BettingSpec, got None"),
        ],
    )
    def test_wrongly_typed_field_refused(self, overrides, violation):
        with pytest.raises(InvalidConfig) as exc:
            validate_config(good_config(**overrides))
        assert exc.value.violations == [violation]

    def test_extra_metric_alpha_checked(self):
        cfg = good_config(extra_metrics=(MetricSpec(alpha=1.5, direction=Direction.RISK_BELOW),))
        with pytest.raises(InvalidConfig) as exc:
            validate_config(cfg)
        assert any("extra_metrics[0]" in v for v in exc.value.violations)


class TestIndependentSettings:
    def test_each_setting_is_one_field(self):
        names = [f.name for f in dataclasses.fields(CalibrationConfig)]
        assert len(names) == 12
        assert "batch_size" not in names and "error_metric" not in names

    @pytest.mark.parametrize("rule", list(SelectionRuleName))
    def test_error_metric_follows_the_rule(self, rule):
        fwer = rule in (SelectionRuleName.BONFERRONI, SelectionRuleName.FIXED_SEQUENCE)
        assert good_config(selection_rule=rule).error_metric is (ErrorMetric.FWER if fwer else ErrorMetric.FDR)

    def test_defaults_live_on_the_spec_types(self):
        assert AcquisitionSpec() == AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, 0.0, 1)
        assert BettingSpec() == BettingSpec(BettingStrategy.AGRAPA, 0.75, 1e-6)


class TestCheckOrder:
    def test_valid_permutation(self):
        check_order((2, 0, 1), 3)

    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1), (0, 1, 3), (0, 1, 2, 3)])
    def test_invalid_orders(self, order):
        with pytest.raises(InvalidOrder):
            check_order(order, 3)


class TestGroundTruth:
    def test_reliable_set_risk_below(self):
        gt = GroundTruth((0.1, 0.2, 0.30001))
        assert reliable_set(gt, 0.2, Direction.RISK_BELOW) == frozenset({0, 1})

    def test_reliable_set_reward_above(self):
        gt = GroundTruth((0.1, 0.2, 0.3))
        assert reliable_set(gt, 0.2, Direction.REWARD_ABOVE) == frozenset({2})

    def test_means_must_be_probabilities(self):
        with pytest.raises(OutOfRange):
            GroundTruth((0.5, 1.2))


class TestEnumValues:
    def test_string_values_are_wire_format(self):
        assert Direction.RISK_BELOW.value == "risk_below"
        assert SelectionRuleName.EBH.value == "ebh"
        assert BettingStrategy.AGRAPA.value == "agrapa"
        assert AcquisitionPolicy.EPS_GREEDY.value == "eps_greedy"
        assert ErrorMetric.FWER.value == "fwer"

    def test_betting_strategies_are_the_implemented_four(self):
        assert [s.value for s in BettingStrategy] == ["unit", "max", "agrapa", "ons"]
