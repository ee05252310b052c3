"""Configuration and ground-truth helpers."""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ecalib.oracle import command_argv
from ecalib.runio import OracleSpec
from ecalib.simharness import Bernoulli, Beta, CompositeSyntheticSpec, PointMass, SyntheticSpec


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
             "acquisition.batch_size must be an integer, got 1.5"),
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


# A config whose every field holds something: an extra metric, and the order
# of a fixed sequence.
FULL_CONFIG = good_config(selection_rule=SelectionRuleName.FIXED_SEQUENCE, fixed_sequence_order=(4, 3, 2, 1, 0),
                          extra_metrics=(MetricSpec(alpha=0.3, direction=Direction.REWARD_ABOVE),))

# The path of every field of FULL_CONFIG and of the specs it holds; an int
# indexes a tuple.
CONFIG_PATHS = [
    *((f.name,) for f in dataclasses.fields(CalibrationConfig)),
    *(("acquisition", f.name) for f in dataclasses.fields(AcquisitionSpec)),
    *(("betting", f.name) for f in dataclasses.fields(BettingSpec)),
    *(("extra_metrics", 0, f.name) for f in dataclasses.fields(MetricSpec)),
    *(("fixed_sequence_order", j) for j in range(5)),
]

# Each spec class with valid values of its fields.
SPECS = {
    Bernoulli: {"p": 0.3},
    Beta: {"a": 2.0, "b": 3.0},
    PointMass: {"value": 0.2},
    SyntheticSpec: {"arms": (Bernoulli(0.3), Beta(2.0, 3.0)), "shared_draw": False, "quantile_threshold": 0.4},
    CompositeSyntheticSpec: {"metrics": (SyntheticSpec((Bernoulli(0.3),)),)},
    OracleSpec: {"command": "tool --flag", "timeout": 5.0},
}

# What a library caller may pass by mistake: integers no float holds, NaN
# and the infinities, booleans, strings and None.
ANY_VALUE = st.one_of(
    st.integers(-(10**400), 10**400),
    st.sampled_from([10**400, -(10**400), 2**1024, 2**64, -1, 0, 1]),
    st.floats(),
    st.booleans(),
    st.text(max_size=6),
    st.none(),
)


def replaced(spec, path, value):
    """spec with the field (or tuple item) at path set to value."""
    key, *rest = path
    inner = replaced(spec[key] if isinstance(spec, tuple) else getattr(spec, key), rest, value) if rest else value
    if isinstance(spec, tuple):
        return spec[:key] + (inner,) + spec[key + 1:]
    return dataclasses.replace(spec, **{key: inner})


class TestEveryFieldTyped:
    """Whatever one field holds, a config or spec is valid or refused with
    InvalidConfig: no builtins error escapes."""

    @pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: ".".join(map(str, p)))
    @given(value=ANY_VALUE)
    @settings(max_examples=60, deadline=None)
    def test_config_field(self, path, value):
        cfg = replaced(FULL_CONFIG, path, value)
        try:
            assert validate_config(cfg) is cfg
        except InvalidConfig as exc:
            assert exc.violations

    @pytest.mark.parametrize("cls, field", [(cls, name) for cls, fields in SPECS.items() for name in fields],
                             ids=lambda x: getattr(x, "__name__", x))
    @given(value=ANY_VALUE)
    @settings(max_examples=60, deadline=None)
    def test_spec_field(self, cls, field, value):
        try:
            spec = cls(**{**SPECS[cls], field: value})
        except InvalidConfig as exc:
            assert exc.violations
            return
        # A spec that is accepted serves what its users read of it.
        if cls is OracleSpec:
            assert command_argv(spec.command)
        else:
            synthetic = spec if cls in (SyntheticSpec, CompositeSyntheticSpec) else SyntheticSpec((spec,))
            assert all(0.0 <= m <= 1.0 for metric in synthetic.metrics for m in metric.means())


class TestIntegersTooLargeForAFloat:
    @pytest.mark.parametrize("make, violation", [
        (lambda: Beta(10**400, 2.0), "a is an integer too large for a float"),
        (lambda: OracleSpec("tool", 10**400), "timeout is an integer too large for a float"),
        (lambda: validate_config(good_config(betting=BettingSpec(BettingStrategy.AGRAPA, clip_fraction=10**400))),
         "betting.clip_fraction is an integer too large for a float"),
        (lambda: validate_config(good_config(alpha=-(10**400))), "alpha is an integer too large for a float"),
    ])
    def test_one_violation(self, make, violation):
        with pytest.raises(InvalidConfig) as exc:
            make()
        assert exc.value.violations == [violation]

    def test_the_largest_integers_a_float_holds_are_numbers(self):
        # 2**1024 - 2**970 is the least integer that float() rounds past the
        # largest float.
        assert Beta(2**1024 - 2**970 - 1, 2.0).a == 2**1024 - 2**970 - 1
        with pytest.raises(InvalidConfig):
            Beta(2**1024 - 2**970, 2.0)


class TestIntegersTooLongToPrint:
    """Python refuses to print an integer of more than 4,300 digits: a
    violation shows one by its size in bits."""

    @pytest.mark.parametrize("field, violation", [
        ("seed", "seed <a 16,610-bit integer> out of [0, 2**64)"),
        ("n_candidates", f"n_candidates must be <= {MAX_CANDIDATES}, got <a 16,610-bit integer>"),
    ])
    def test_one_violation(self, field, violation):
        with pytest.raises(InvalidConfig) as exc:
            validate_config(good_config(**{field: 10**5000}))
        assert exc.value.violations == [violation]

    def test_integers_up_to_2_256_print_in_full(self):
        with pytest.raises(InvalidConfig, match=re.escape(f"seed {2**256 - 1} out of")):
            validate_config(good_config(seed=2**256 - 1))


class TestTupleFields:
    """A tuple field is checked item by item: one outside is named by its
    first item outside and a count of the others, so a long tuple never
    makes a long message."""

    def test_fixed_sequence_order_counts_the_others(self):
        cfg = good_config(selection_rule=SelectionRuleName.FIXED_SEQUENCE, fixed_sequence_order=(0.0, 1.0, 2, 3, 4))
        with pytest.raises(InvalidConfig) as exc:
            validate_config(cfg)
        assert exc.value.violations == [
            "fixed_sequence_order[0] must be an integer, got 0.0 (1 more of fixed_sequence_order outside)"]

    def test_extra_metrics_name_the_first_item_outside(self):
        metrics = (MetricSpec(0.5, Direction.RISK_BELOW), 0.5, None)
        with pytest.raises(InvalidConfig) as exc:
            validate_config(good_config(extra_metrics=metrics))
        assert exc.value.violations == [
            "extra_metrics[1] must be a MetricSpec, got 0.5 (1 more of extra_metrics outside)"]

    def test_a_thousand_arms_make_one_short_violation(self):
        arms = (Bernoulli(0.5),) * 999 + (0.1,)
        with pytest.raises(InvalidConfig) as exc:
            SyntheticSpec(arms)
        assert exc.value.violations == ["arms[999] must be a Bernoulli, Beta or PointMass, got 0.1"]
        with pytest.raises(InvalidConfig) as exc:
            SyntheticSpec(list(arms))
        assert len(str(exc.value)) < 200

    def test_metrics_name_the_first_item_outside(self):
        spec = SyntheticSpec((Bernoulli(0.5),))
        with pytest.raises(InvalidConfig) as exc:
            CompositeSyntheticSpec((spec, Bernoulli(0.5), spec, "x"))
        assert exc.value.violations == [
            "metrics[1] must be a SyntheticSpec, got Bernoulli(p=0.5) (1 more of metrics outside)"]


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

    # The means are a tuple of numbers in [0, 1]; a list or a bool is refused
    # as a config's tuple fields refuse them.
    @pytest.mark.parametrize("means, violation", [
        ("a", "true_means must be a tuple, got 'a'"),
        (5, "true_means must be a tuple, got 5"),
        ([0.5], "true_means must be a tuple, got [0.5]"),
        ((None,), "true_means[0] must be a number, got None"),
        ((True,), "true_means[0] must be a number, got True"),
        ((0.5, 1.2, -1.0), "true_means[1] 1.2 out of [0,1] (1 more of true_means outside)"),
        ((10**5000,), "true_means[0] is an integer too large for a float"),
    ])
    def test_refused_means_name_the_first_item_outside(self, means, violation):
        with pytest.raises(OutOfRange, match=f"^{re.escape(violation)}$"):
            GroundTruth(means)


class TestEnumValues:
    def test_string_values_are_wire_format(self):
        assert Direction.RISK_BELOW.value == "risk_below"
        assert SelectionRuleName.EBH.value == "ebh"
        assert BettingStrategy.AGRAPA.value == "agrapa"
        assert AcquisitionPolicy.EPS_GREEDY.value == "eps_greedy"
        assert ErrorMetric.FWER.value == "fwer"

    def test_betting_strategies_are_the_implemented_four(self):
        assert [s.value for s in BettingStrategy] == ["unit", "max", "agrapa", "ons"]
