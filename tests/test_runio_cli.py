"""Config serialization, run-directory artifacts, replay, and the CLI."""

from __future__ import annotations

import csv
import dataclasses
import enum
import importlib.util
import json
import math
import random
import re
import shlex
import shutil
import sys
from pathlib import Path

import pytest
from conftest import LAYOUTS, one_run_layout
from hypothesis import given, settings
from hypothesis import strategies as st

from ecalib.cli import main
from ecalib.core import (
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    MAX_CANDIDATES,
    CalibrationConfig,
    Direction,
    ErrorMetric,
    MetricSpec,
    SelectionRuleName,
    validate_config,
)
from ecalib.errors import InvalidConfig
from ecalib import runio
from ecalib.orchestrator import run_altt
from ecalib.rng import MIXER_ID
from ecalib.runio import (
    OracleSpec,
    ReplayMismatch,
    RunPlan,
    _first_difference,
    config_to_dict,
    fmt17,
    load_config,
    parse_config,
    read_manifest,
    replay_check,
    write_manifest,
)
from ecalib.simharness import (
    MAX_T_MAX,
    MAX_TRIALS,
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    PointMass,
    SyntheticSpec,
    check_t_max,
)


def base_config_doc() -> dict:
    return {
        "n_candidates": 3,
        "alpha": 0.4,
        "delta": 0.1,
        "direction": "risk_below",
        "error_metric": "fwer",
        "selection_rule": "bonferroni",
        "acquisition": {"policy": "eps_greedy", "epsilon": 0.3, "batch_size": 1},
        "betting": {"strategy": "agrapa"},
        "t_max": 80,
        "d_stop": 3,
        "batch_size": 1,
        "seed": 5,
        "source": {
            "kind": "synthetic",
            "arms": [
                {"dist": "bernoulli", "p": 0.1},
                {"dist": "bernoulli", "p": 0.3},
                {"dist": "bernoulli", "p": 0.7},
            ],
        },
    }


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestFmt17:
    def test_round_trips_doubles_exactly(self):
        rng = random.Random(123)
        values = [rng.random() for _ in range(200)]
        values += [0.1, 1.0 / 3.0, 1.999999**5, 1e-300, 1e300, 0.0, 5e-324]
        for x in values:
            assert float(fmt17(x)) == x


class TestConfigRoundTrip:
    def test_plain_synthetic(self):
        plan = parse_config(base_config_doc())
        assert plan == parse_config(config_to_dict(plan))
        assert plan.cfg.alpha == 0.4
        assert plan.source == SyntheticSpec((Bernoulli(0.1), Bernoulli(0.3), Bernoulli(0.7)))

    def test_every_arm_kind_and_flags(self):
        doc = base_config_doc()
        doc["source"] = {
            "kind": "synthetic",
            "arms": [
                {"dist": "beta", "a": 2.0, "b": 5.0},
                {"dist": "point", "value": 0.25},
                {"dist": "bernoulli", "p": 0.5},
            ],
            "shared_draw": True,
            "quantile_threshold": 0.3,
        }
        plan = parse_config(doc)
        assert plan.source == SyntheticSpec(
            (Beta(2.0, 5.0), PointMass(0.25), Bernoulli(0.5)),
            shared_draw=True,
            quantile_threshold=0.3,
        )
        assert plan == parse_config(config_to_dict(plan))

    def test_fixed_sequence_order_preserved(self):
        doc = base_config_doc()
        doc["selection_rule"] = "fixed_sequence"
        doc["fixed_sequence_order"] = [2, 0, 1]
        plan = parse_config(doc)
        assert plan.cfg.fixed_sequence_order == (2, 0, 1)
        assert plan == parse_config(config_to_dict(plan))

    def test_composite_with_extra_metrics(self):
        doc = base_config_doc()
        doc["n_candidates"] = 2
        doc["d_stop"] = 2
        doc["extra_metrics"] = [{"alpha": 0.5, "direction": "risk_below"}]
        doc["source"] = {
            "kind": "composite",
            "metrics": [
                {"kind": "synthetic", "arms": [{"dist": "bernoulli", "p": 0.2}, {"dist": "bernoulli", "p": 0.6}]},
                {"kind": "synthetic", "arms": [{"dist": "bernoulli", "p": 0.3}, {"dist": "bernoulli", "p": 0.4}]},
            ],
        }
        plan = parse_config(doc)
        assert plan.cfg.extra_metrics == (MetricSpec(0.5, Direction.RISK_BELOW),)
        assert isinstance(plan.source, CompositeSyntheticSpec)
        assert plan == parse_config(config_to_dict(plan))

    def test_oracle_source_and_sweep(self):
        doc = base_config_doc()
        doc["acquisition"] = {"policy": "uniform_all", "batch_size": 1}
        doc["source"] = {"kind": "oracle", "command": "mytool --serve", "timeout": 12.5}
        doc["sweep"] = {"delta": [0.05, 0.1]}
        plan = parse_config(doc)
        assert plan.source == OracleSpec("mytool --serve", 12.5)
        assert plan.sweep == {"delta": [0.05, 0.1]}
        assert plan == parse_config(config_to_dict(plan))


unit_floats = st.floats(0.0, 1.0)
open_unit_floats = st.floats(0.001, 0.999)
arms = st.one_of(
    st.builds(Bernoulli, unit_floats),
    st.builds(Beta, st.floats(0.01, 50.0), st.floats(0.01, 50.0)),
    st.builds(PointMass, unit_floats),
)


@st.composite
def plans(draw) -> RunPlan:
    """Valid plans over every field, source kind and sweep axis."""
    n = draw(st.integers(1, 5))
    extra = draw(st.lists(st.builds(MetricSpec, open_unit_floats, st.sampled_from(Direction)), max_size=2))
    rule = draw(st.sampled_from(SelectionRuleName))
    order = draw(st.permutations(range(n))) if rule is SelectionRuleName.FIXED_SEQUENCE else None
    cfg = CalibrationConfig(
        n_candidates=n,
        alpha=draw(open_unit_floats),
        delta=draw(open_unit_floats),
        direction=draw(st.sampled_from(Direction)),
        selection_rule=rule,
        acquisition=AcquisitionSpec(draw(st.sampled_from(AcquisitionPolicy)), draw(unit_floats), draw(st.integers(1, n))),
        betting=BettingSpec(draw(st.sampled_from(BettingStrategy)), draw(st.floats(0.01, 1.0)), draw(open_unit_floats)),
        t_max=draw(st.integers(1, 10**6)),
        d_stop=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 2**64 - 1)),
        fixed_sequence_order=None if order is None else tuple(order),
        extra_metrics=tuple(extra),
    )
    synthetic = st.builds(
        SyntheticSpec, st.lists(arms, min_size=n, max_size=n).map(tuple), st.booleans(), st.none() | unit_floats
    )
    if extra:
        source = CompositeSyntheticSpec(tuple(draw(synthetic) for _ in range(1 + len(extra))))
    else:
        source = draw(st.one_of(synthetic, st.builds(OracleSpec, st.sampled_from(["tool", "tool --serve 'a b'"]),
                                                     st.floats(0.001, 1e6))))
    sweep = draw(st.dictionaries(st.sampled_from(["alpha", "delta", "epsilon"]),
                                 st.lists(open_unit_floats, min_size=1, max_size=3), max_size=2))
    if draw(st.booleans()):
        sweep["strategy"] = draw(st.lists(st.sampled_from([s.value for s in BettingStrategy]), min_size=1))
    return RunPlan(validate_config(cfg), source, sweep)


def reference_to_json(value):
    """The config echo as a generic walk of the value: a spec as its tag, if
    it has one, and every field in order; an enum member by value; a tuple
    as a list."""
    if dataclasses.is_dataclass(value):
        tag = runio._TAG_OF.get(type(value))
        out = {tag[0]: tag[1]} if tag else {}
        out.update((key, reference_to_json(getattr(value, key))) for key in runio._schema(type(value)))
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [reference_to_json(v) for v in value]
    return value


def reference_echo(plan: RunPlan) -> str:
    doc = runio._Document(plan.cfg.error_metric, plan.source, plan.cfg.acquisition.batch_size, plan.sweep or None)
    doc = reference_to_json(doc)
    del doc["literal_set"]  # read from old run directories, never written
    return json.dumps({**reference_to_json(plan.cfg), **doc})


def _workload_configs() -> dict:
    """The benchmark's generated configs, by workload, kind and seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclass
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return {f"{name}-{kind}-{seed}": getattr(make(seed), kind)
            for name, make in workloads.WORKLOADS.items()
            for kind in ("mc_config", "logged_config") for seed in (7, 11)}


# Every checked-in run directory's config, and the benchmark's.
ECHOED_CONFIGS = {
    **{f"run-{path.parent.name}": json.loads(path.read_text(encoding="utf-8"))["config"]
       for path in sorted((Path(__file__).resolve().parent / "data" / "runs").glob("*/manifest.json"))},
    **_workload_configs(),
}


class TestPlanRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(plan=plans())
    def test_echo_parses_back_to_the_plan(self, plan):
        assert json.dumps(config_to_dict(plan)) == reference_echo(plan)
        doc = json.loads(json.dumps(config_to_dict(plan)))
        assert parse_config(doc) == plan

    @pytest.mark.parametrize("name", ECHOED_CONFIGS)
    def test_echo_is_the_generic_walk(self, name):
        plan = parse_config(ECHOED_CONFIGS[name])
        assert json.dumps(config_to_dict(plan)) == reference_echo(plan)

    def test_echo_writes_every_field(self):
        doc = config_to_dict(parse_config(base_config_doc()))
        assert doc["fixed_sequence_order"] is None and doc["extra_metrics"] == [] and doc["sweep"] is None
        assert doc["source"]["quantile_threshold"] is None
        assert set(doc["betting"]) == {"strategy", "clip_fraction", "max_bet_epsilon"}


class TestConfigErrors:
    def test_missing_field_named(self):
        doc = base_config_doc()
        del doc["alpha"]
        with pytest.raises(InvalidConfig, match="missing config field 'alpha'"):
            parse_config(doc)

    def test_bad_enum_lists_choices(self):
        doc = base_config_doc()
        doc["selection_rule"] = "holm"
        with pytest.raises(InvalidConfig, match="selection_rule must be one of"):
            parse_config(doc)

    def test_unknown_source_kind(self):
        doc = base_config_doc()
        doc["source"] = {"kind": "csv"}
        with pytest.raises(InvalidConfig, match="unknown source kind"):
            parse_config(doc)

    def test_unknown_distribution(self):
        doc = base_config_doc()
        doc["source"]["arms"][0] = {"dist": "gaussian", "mu": 0.5}
        with pytest.raises(InvalidConfig, match="unknown distribution"):
            parse_config(doc)

    def test_arm_count_must_match(self):
        doc = base_config_doc()
        doc["n_candidates"] = 4
        doc["d_stop"] = 4
        with pytest.raises(InvalidConfig, match="arm count"):
            parse_config(doc)

    @pytest.mark.parametrize("composite", [False, True])
    def test_metric_count_must_match(self, composite):
        # A plain synthetic source draws one metric, a composite one per spec.
        doc = base_config_doc()
        doc["extra_metrics"] = [{"alpha": 0.5, "direction": "risk_below"}]
        if composite:
            doc["source"] = {"kind": "composite", "metrics": [doc["source"]] * 3}
        with pytest.raises(InvalidConfig, match="source metric count disagrees with config"):
            parse_config(doc)

    def test_oracle_rejects_extra_metrics(self):
        doc = base_config_doc()
        doc["acquisition"] = {"policy": "uniform_all", "batch_size": 1}
        doc["extra_metrics"] = [{"alpha": 0.5, "direction": "risk_below"}]
        doc["source"] = {"kind": "oracle", "command": "x"}
        with pytest.raises(InvalidConfig, match="single-metric"):
            parse_config(doc)

    def test_unknown_sweep_axis(self):
        doc = base_config_doc()
        doc["sweep"] = {"batch_size": [1, 2]}
        with pytest.raises(InvalidConfig, match="sweep axes"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"error_metric": "fdr"}, "rule/metric mismatch: FDR requires bh, by, or ebh"),
            ({"selection_rule": "bh"}, "rule/metric mismatch: FWER requires bonferroni or fixed_sequence"),
            ({"batch_size": 2}, "acquisition.batch_size disagrees with config batch_size"),
            ({"batch_size": None, "acquisition": {"policy": "eps_greedy", "batch_size": 2}},
             "acquisition.batch_size disagrees with config batch_size"),
        ],
        ids=["fdr_with_bonferroni", "fwer_with_bh", "batch_sizes_differ", "acquisition_batch_without_top_level"],
    )
    def test_restated_settings_must_agree(self, change, message):
        """Each pair is refused with the message it had when the config held both."""
        doc = {key: value for key, value in {**base_config_doc(), **change}.items() if value is not None}
        with pytest.raises(InvalidConfig) as exc:
            parse_config(doc)
        assert exc.value.violations == [message]

    def test_top_level_batch_size_is_the_acquisition_default(self):
        doc = base_config_doc()
        doc["batch_size"] = 2
        del doc["acquisition"]["batch_size"]
        plan = parse_config(doc)
        assert plan.cfg.acquisition.batch_size == 2
        assert config_to_dict(plan)["batch_size"] == config_to_dict(plan)["acquisition"]["batch_size"] == 2

    def test_error_metric_still_required_and_checked(self):
        doc = base_config_doc()
        del doc["error_metric"]
        with pytest.raises(InvalidConfig, match="missing config field 'error_metric'"):
            parse_config(doc)
        doc["error_metric"] = "fcr"
        with pytest.raises(InvalidConfig, match="error_metric must be one of: fwer, fdr"):
            parse_config(doc)

    def test_semantic_validation_applies(self):
        doc = base_config_doc()
        doc["alpha"] = 1.7
        with pytest.raises(InvalidConfig, match="alpha out of"):
            parse_config(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidConfig, match="not valid JSON"):
            load_config(path)


def error_lines(caplog) -> list[str]:
    """ERROR records as main's log format prints them."""
    return [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records if r.levelname == "ERROR"]


def set_path(doc: dict, path: tuple, value) -> dict:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestStrictScalarTypes:
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("literal_set",), "false", "literal_set must be a JSON boolean, got 'false'"),
            (("n_candidates",), 2.7, "n_candidates must be a JSON integer, got 2.7"),
            (("n_candidates",), True, "n_candidates must be a JSON integer, got True"),
            (("alpha",), "abc", "alpha must be a JSON number, got 'abc'"),
            (("alpha",), True, "alpha must be a JSON number, got True"),
            (("seed",), "5", "seed must be a JSON integer, got '5'"),
            (("t_max",), 80.0, "t_max must be a JSON integer, got 80.0"),
            (("acquisition", "epsilon"), "0.3", "acquisition.epsilon must be a JSON number"),
            (("acquisition", "batch_size"), False, "acquisition.batch_size must be a JSON integer"),
            (("betting", "strategy"), 3, "betting.strategy must be one of: unit, max, agrapa, ons"),
            (("betting",), "agrapa", "betting must be a JSON object"),
            (("source", "shared_draw"), 1, "source.shared_draw must be a JSON boolean, got 1"),
            (("source", "arms", 1, "p"), "0.3", "source.arms[1].p must be a JSON number"),
            (("fixed_sequence_order",), [0, 1.0, 2], "fixed_sequence_order[1] must be a JSON integer"),
            (("extra_metrics",), [{"alpha": "0.5", "direction": "risk_below"}], "extra_metrics[0].alpha must be a JSON number"),
        ],
    )
    def test_wrong_json_type_is_named(self, path, value, message):
        doc = set_path(base_config_doc(), path, value)
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            parse_config(doc)

    def test_every_violation_in_one_error(self):
        doc = base_config_doc()
        doc["literal_set"] = "false"
        doc["n_candidates"] = 2.7
        doc["alpha"] = "abc"
        with pytest.raises(InvalidConfig) as exc:
            parse_config(doc)
        assert {v.split(" ")[0] for v in exc.value.violations} == {"literal_set", "n_candidates", "alpha"}

    def test_missing_enum_field_named(self):
        doc = base_config_doc()
        del doc["direction"]
        with pytest.raises(InvalidConfig, match="missing config field 'direction'"):
            parse_config(doc)

    def test_integers_are_numbers(self):
        doc = base_config_doc()
        doc["acquisition"]["epsilon"] = 0
        doc["betting"]["clip_fraction"] = 1
        plan = parse_config(doc)
        assert plan.cfg.acquisition.epsilon == 0.0 and isinstance(plan.cfg.acquisition.epsilon, float)
        assert plan.cfg.betting.clip_fraction == 1.0
        assert plan == parse_config(json.loads(json.dumps(config_to_dict(plan))))

    def test_optional_fields_may_be_null(self):
        doc = base_config_doc()
        doc["fixed_sequence_order"] = None
        doc["source"]["quantile_threshold"] = None
        assert parse_config(doc) == parse_config(base_config_doc())

    def test_non_object_config_refused(self):
        with pytest.raises(InvalidConfig, match="JSON object"):
            parse_config([1, 2])

    def test_lbow_refused_at_parse(self):
        doc = base_config_doc()
        doc["betting"] = {"strategy": "lbow"}
        with pytest.raises(InvalidConfig, match="betting.strategy must be one of: unit, max, agrapa, ons$"):
            parse_config(doc)

    def test_cli_refuses_before_writing(self, tmp_path, caplog):
        doc = base_config_doc()
        doc["literal_set"] = "false"
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: literal_set must be a JSON boolean")
        assert not out.exists()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        alpha=st.floats(0.01, 0.99),
        epsilon=st.floats(0.0, 1.0),
        shared=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        params=st.lists(st.tuples(st.sampled_from(["bernoulli", "beta", "point"]), st.floats(0.01, 1.0)), min_size=6, max_size=6),
    )
    def test_manifest_config_round_trips(self, n, alpha, epsilon, shared, seed, params):
        arms = {
            "bernoulli": lambda x: {"dist": "bernoulli", "p": x},
            "beta": lambda x: {"dist": "beta", "a": x, "b": 2.0 * x},
            "point": lambda x: {"dist": "point", "value": x},
        }
        doc = base_config_doc()
        doc.update(n_candidates=n, alpha=alpha, d_stop=n, seed=seed)
        doc["acquisition"]["epsilon"] = epsilon
        doc["source"] = {"kind": "synthetic", "arms": [arms[k](x) for k, x in params[:n]], "shared_draw": shared}
        plan = parse_config(doc)
        assert parse_config(json.loads(json.dumps(config_to_dict(plan)))) == plan


class TestRetiredLiteralSet:
    """``literal_set`` is read from old run directories, never written: the
    step-up rules select their closure, whatever it says."""

    @pytest.mark.parametrize("rule, metric", [("bonferroni", "fwer"), ("fixed_sequence", "fwer"),
                                              ("bh", "fdr"), ("by", "fdr"), ("ebh", "fdr")])
    @pytest.mark.parametrize("literal", [False, True])
    def test_only_literal_step_up_sets_are_refused(self, rule, metric, literal):
        doc = base_config_doc()
        doc.update(selection_rule=rule, error_metric=metric)
        plan = parse_config(doc)
        assert "literal_set" not in config_to_dict(plan)
        if literal and metric == "fdr":
            with pytest.raises(InvalidConfig) as exc:
                parse_config({**doc, "literal_set": True})
            assert exc.value.violations == [
                f"literal_set true under {rule} is refused: the literal step-up set voids FDR control, "
                "and the closure is what runs (set literal_set false or drop it)"]
        else:
            assert parse_config({**doc, "literal_set": literal}) == plan

    @pytest.mark.parametrize("rule", ["bh", "by", "ebh"])
    def test_simulate_refuses_before_writing(self, tmp_path, caplog, rule):
        doc = {**base_config_doc(), "selection_rule": rule, "error_metric": "fdr", "literal_set": True}
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith(f"ERROR ecalib: literal_set true under {rule} is refused")
        assert not out.exists()


def composite_doc(metrics) -> dict:
    doc = base_config_doc()
    doc["extra_metrics"] = [{"alpha": 0.5, "direction": "risk_below"}]
    doc["source"] = {"kind": "composite", "metrics": metrics}
    if metrics is None:
        del doc["source"]["metrics"]
    return doc


def oracle_doc(**source) -> dict:
    doc = base_config_doc()
    doc["acquisition"] = {"policy": "uniform_all", "batch_size": 1}
    doc["source"] = {"kind": "oracle", "command": "tool", **source}
    return doc


def changed(path: tuple, value) -> dict:
    return set_path(base_config_doc(), path, value)


def removed(*path) -> dict:
    doc = base_config_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


THREE_ARMS = {"kind": "synthetic", "arms": [{"dist": "bernoulli", "p": 0.5}] * 3}

MALFORMED = {
    "composite_metric_not_an_object": (composite_doc([5]), "source.metrics[0] must be a JSON object, got 5"),
    "composite_metrics_missing": (composite_doc(None), "missing config field 'source.metrics'"),
    "composite_metrics_a_string": (composite_doc("ab"), "source.metrics must be a JSON list, got 'ab'"),
    "composite_metrics_empty": (composite_doc([]), "source.metrics must be nonempty and equally sized"),
    "composite_sizes_differ": (composite_doc([THREE_ARMS, {"kind": "synthetic", "arms": THREE_ARMS["arms"][:2]}]),
                               "source.metrics must be nonempty and equally sized"),
    "composite_metric_arm_bad": (composite_doc([THREE_ARMS, {"kind": "synthetic", "arms": [{"dist": "point"}] * 3}]),
                                 "missing config field 'source.metrics[1].arms[0].value'"),
    "quantile_threshold_nan": (changed(("source", "quantile_threshold"), math.nan),
                               "source.quantile_threshold nan out of [0,1]"),
    "quantile_threshold_above_one": (changed(("source", "quantile_threshold"), 1.5),
                                     "source.quantile_threshold 1.5 out of [0,1]"),
    "quantile_threshold_negative": (changed(("source", "quantile_threshold"), -0.1),
                                    "source.quantile_threshold -0.1 out of [0,1]"),
    "quantile_threshold_a_string": (changed(("source", "quantile_threshold"), "0.3"),
                                    "source.quantile_threshold must be a JSON number, got '0.3'"),
    "alpha_an_int_too_large": (changed(("alpha",), 10**400), "alpha is an integer too large for a float"),
    "arm_p_an_int_too_large": (changed(("source", "arms", 0, "p"), -10**400),
                               "source.arms[0].p is an integer too large for a float"),
    "source_missing": (removed("source"), "missing config field 'source'"),
    "source_not_an_object": (changed(("source",), [1]), "source must be a JSON object, got [1]"),
    "source_kind_missing": (removed("source", "kind"), "unknown source kind None at source"),
    "source_kind_a_list": (changed(("source", "kind"), ["oracle"]), "unknown source kind ['oracle'] at source"),
    "arms_missing": (removed("source", "arms"), "missing config field 'source.arms'"),
    "arms_an_object": (changed(("source", "arms"), {}), "source.arms must be a JSON list, got {}"),
    "arm_not_an_object": (changed(("source", "arms", 0), 0.5), "source.arms[0] must be a JSON object, got 0.5"),
    "dist_a_list": (changed(("source", "arms", 0, "dist"), ["beta"]),
                    "unknown distribution ['beta'] at source.arms[0]"),
    "shared_draw_null": (changed(("source", "shared_draw"), None), "source.shared_draw must be a JSON boolean, got None"),
    "acquisition_a_string": (changed(("acquisition",), "eps_greedy"), "acquisition must be a JSON object"),
    "policy_unknown": (changed(("acquisition", "policy"), "greedy"), "acquisition.policy must be one of:"),
    "direction_a_list": (changed(("direction",), ["risk_below"]), "direction must be one of: risk_below, reward_above"),
    "extra_metric_not_an_object": (changed(("extra_metrics",), [5]), "extra_metrics[0] must be a JSON object, got 5"),
    "extra_metrics_an_object": (changed(("extra_metrics",), {}), "extra_metrics must be a JSON list, got {}"),
    "extra_metric_direction_missing": (changed(("extra_metrics",), [{"alpha": 0.5}]),
                                       "missing config field 'extra_metrics[0].direction'"),
    "order_a_string": (changed(("fixed_sequence_order",), "012"), "fixed_sequence_order must be a JSON list, got '012'"),
    "top_level_batch_size_a_string": (changed(("batch_size",), "1"), "batch_size must be a JSON integer, got '1'"),
    "error_metric_null": (changed(("error_metric",), None), "error_metric must be one of: fwer, fdr"),
    "sweep_a_list": (changed(("sweep",), ["alpha"]), "sweep must be a JSON object, got ['alpha']"),
    "oracle_command_a_number": (oracle_doc(command=5), "source.command must be a JSON string, got 5"),
    "oracle_command_blank": (oracle_doc(command=" "), "source.command ' ' must split, shell-style, into at least one word"),
    "oracle_timeout_zero": (oracle_doc(timeout=0), "source.timeout 0.0 must be finite and > 0"),
    "oracle_timeout_nan": (oracle_doc(timeout=math.nan), "source.timeout nan must be finite and > 0"),
    "oracle_timeout_a_string": (oracle_doc(timeout="5"), "source.timeout must be a JSON number, got '5'"),
    "unknown_top_level_field": (changed(("literal_sett",), True), "unknown config field 'literal_sett'"),
    "unknown_spec_field": (changed(("betting", "clip_fracton"), 0.5), "unknown config field 'betting.clip_fracton'"),
    "unknown_acquisition_field": (changed(("acquisition", "epsilonn"), 0.9),
                                  "unknown config field 'acquisition.epsilonn'"),
    "unknown_source_field": (changed(("source", "shared_drw"), True), "unknown config field 'source.shared_drw'"),
    "unknown_arm_field": (changed(("source", "arms", 1, "mean"), 0.3), "unknown config field 'source.arms[1].mean'"),
    "unknown_extra_metric_field": (changed(("extra_metrics",), [{"alpha": 0.5, "direction": "risk_below", "alpah": 0.4}]),
                                   "unknown config field 'extra_metrics[0].alpah'"),
    "unknown_composite_metric_field": (composite_doc([{**THREE_ARMS, "shared": True}, THREE_ARMS]),
                                       "unknown config field 'source.metrics[0].shared'"),
    "unknown_oracle_field": (oracle_doc(timout=5), "unknown config field 'source.timout'"),
    "tag_of_another_union": (changed(("source", "dist"), "point"), "unknown config field 'source.dist'"),
}


class TestMalformedConfigs:
    @pytest.mark.parametrize("doc, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_refused_with_the_violation_named(self, doc, message):
        with pytest.raises(InvalidConfig) as exc:
            parse_config(doc)
        assert any(v.startswith(message) for v in exc.value.violations), exc.value.violations

    def test_validate_refuses_a_nan_quantile_threshold(self, tmp_path, caplog):
        # The indicator 1[raw <= nan] is always 0 while means() reports the
        # CDF at nan, so a run would report a false failure, not a config error.
        doc = changed(("source", "quantile_threshold"), math.nan)
        out = tmp_path / "val"
        assert main(["validate", "--config", write_doc(tmp_path, doc), "--trials", "2", "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line == "ERROR ecalib: source.quantile_threshold nan out of [0,1]"
        assert not out.exists()

    def test_simulate_refuses_an_int_too_large_for_a_float(self, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, changed(("delta",), 10**400)), "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line == "ERROR ecalib: delta is an integer too large for a float"
        assert not out.exists()


class TestDistributionParameters:
    @pytest.mark.parametrize(
        "arm, field",
        [
            ({"dist": "bernoulli", "p": 1.7}, "source.arms[0].p 1.7 out of [0,1]"),
            ({"dist": "bernoulli", "p": -0.1}, "source.arms[0].p -0.1 out of [0,1]"),
            ({"dist": "point", "value": 1.5}, "source.arms[0].value 1.5 out of [0,1]"),
            ({"dist": "beta", "a": -1.0, "b": 2.0}, "source.arms[0].a -1.0 must be finite and > 0"),
            ({"dist": "beta", "a": 2.0, "b": 0}, "source.arms[0].b 0.0 must be finite and > 0"),
            ({"dist": "beta", "a": float("inf"), "b": 2.0}, "source.arms[0].a inf must be finite and > 0"),
            ({"dist": "beta", "a": float("nan"), "b": 2.0}, "source.arms[0].a nan must be finite and > 0"),
            ({"dist": "bernoulli"}, "missing config field 'source.arms[0].p'"),
        ],
    )
    def test_out_of_domain_parameter_refused(self, arm, field):
        doc = base_config_doc()
        doc["source"]["arms"][0] = arm
        with pytest.raises(InvalidConfig, match=re.escape(field)):
            parse_config(doc)

    def test_oracle_spec_checks_its_fields(self):
        with pytest.raises(InvalidConfig) as exc:
            OracleSpec("'unclosed", 0.0)
        assert exc.value.violations == ["command \"'unclosed\" must split, shell-style, into at least one word",
                                        "timeout 0.0 must be finite and > 0"]

    @pytest.mark.parametrize("command, timeout, violation", [
        ("tool", "5", "timeout must be a number, got '5'"),
        ("tool", True, "timeout must be a number, got True"),
        (5, 1.0, "command must be a string, got 5"),
    ])
    def test_oracle_spec_checks_its_fields_types(self, command, timeout, violation):
        with pytest.raises(InvalidConfig) as exc:
            OracleSpec(command, timeout)
        assert exc.value.violations == [violation]

    def test_composite_metric_arms_checked(self):
        doc = base_config_doc()
        doc["n_candidates"] = 1
        doc["d_stop"] = 1
        doc["extra_metrics"] = [{"alpha": 0.5, "direction": "risk_below"}]
        doc["source"] = {
            "kind": "composite",
            "metrics": [
                {"kind": "synthetic", "arms": [{"dist": "bernoulli", "p": 0.2}]},
                {"kind": "synthetic", "arms": [{"dist": "beta", "a": 2.0, "b": -4.0}]},
            ],
        }
        with pytest.raises(InvalidConfig, match=re.escape("source.metrics[1].arms[0].b")):
            parse_config(doc)

    @pytest.mark.parametrize(
        "command, arm",
        [("simulate", {"dist": "bernoulli", "p": 1.7}), ("validate", {"dist": "beta", "a": -1.0, "b": 2.0})],
    )
    def test_refused_before_any_output(self, tmp_path, caplog, command, arm):
        doc = base_config_doc()
        doc["source"]["arms"][2] = arm
        out = tmp_path / "run"
        argv = [command, "--config", write_doc(tmp_path, doc), "--out", str(out)]
        if command == "validate":
            argv += ["--trials", "2"]
        assert main(argv) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: source.arms[2].")
        assert not out.exists()


class TestManifest:
    def test_round_trip_and_provenance_fields(self, tmp_path):
        plan = parse_config(base_config_doc())
        write_manifest(tmp_path, plan, started="2026-01-01T00:00:00+00:00", finished="2026-01-01T00:00:05+00:00", trials=7)
        doc = read_manifest(tmp_path)
        assert doc["tool"] == "ecalib"
        assert doc["rng_mixer"] == MIXER_ID
        assert doc["base_seed"] == 5
        assert doc["trials"] == 7
        assert parse_config(doc["config"]) == plan


class TestSimulateAndReplay:
    def test_simulate_is_byte_reproducible(self, tmp_path):
        cfg_path = write_doc(tmp_path, base_config_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        final = json.loads((out_a / "final.json").read_text())
        assert final == json.loads((out_b / "final.json").read_text())
        assert set(final) == {"selected", "stop_reason", "T", "n_queries"}

    def test_seed_override_changes_the_run(self, tmp_path):
        cfg_path = write_doc(tmp_path, base_config_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out_b), "--seed", "99"]) == 0
        assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()
        assert read_manifest(out_b)["base_seed"] == 99

    def test_replay_reproduces_a_logged_run(self, tmp_path):
        cfg_path = write_doc(tmp_path, base_config_doc())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert replay_check(out) > 0
        assert main(["replay", "--in", str(out)]) == 0

    def test_replay_covers_composite_logs(self, tmp_path):
        doc = base_config_doc()
        doc["n_candidates"] = 2
        doc["d_stop"] = 2
        doc["t_max"] = 40
        doc["extra_metrics"] = [{"alpha": 0.5, "direction": "risk_below"}]
        doc["source"] = {
            "kind": "composite",
            "metrics": [
                {"kind": "synthetic", "arms": [{"dist": "bernoulli", "p": 0.2}, {"dist": "bernoulli", "p": 0.6}]},
                {"kind": "synthetic", "arms": [{"dist": "beta", "a": 2.0, "b": 4.0}, {"dist": "bernoulli", "p": 0.4}]},
            ],
        }
        cfg_path = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert replay_check(out) > 0

    def test_tampered_log_is_rejected(self, tmp_path):
        cfg_path = write_doc(tmp_path, base_config_doc())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        rounds = out / "rounds.csv"
        with open(rounds, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[3][4] = fmt17(float(rows[3][4].split(";")[0]) * 1.0001)
        with open(rounds, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ReplayMismatch):
            replay_check(out)
        assert main(["replay", "--in", str(out)]) == 1

    def test_replay_reads_cells_past_the_csv_field_limit(self, tmp_path):
        n = 7000
        doc = base_config_doc()
        doc.update(n_candidates=n, d_stop=n, t_max=2)
        doc["acquisition"] = {"policy": "full_batch", "batch_size": 1}
        doc["source"] = {"kind": "synthetic", "arms": [{"dist": "beta", "a": 2, "b": 9}] * n}
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        risks = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[3]
        assert len(risks) > csv.field_size_limit()
        assert replay_check(out) == 2

    def test_a_mismatch_in_a_large_log_names_the_first_differing_entry(self, tmp_path, caplog):
        n, batch = 3000, 1000
        doc = base_config_doc()
        doc.update(n_candidates=n, d_stop=n, t_max=2, batch_size=batch)
        doc["acquisition"] = {"policy": "uniform_all", "batch_size": batch}
        doc["source"] = {"kind": "synthetic", "arms": [{"dist": "beta", "a": 2, "b": 9}] * n}
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        cells = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()[2].split(",")
        tested, wealths = cells[2].split(";"), cells[4].split(";")
        edited = fmt17(float(wealths[617]) * 1.0001)
        edit_rounds(out, 2, 4, ";".join([*wealths[:617], edited, *wealths[618:]]))
        caplog.clear()
        assert main(["replay", "--in", str(out)]) == 1
        [line] = error_lines(caplog)
        assert len(line) < 300
        assert line == (f"ERROR ecalib: {out / 'rounds.csv'} line 3: wealths entry 617 (id {tested[617]}): "
                        f"{wealths[617]} != logged {edited}")

    @pytest.mark.parametrize(
        "name, got, logged, message",
        [
            ("wealths", "1.5;2;3", "1.5;2.5;3", "wealths entry 1 (id 7): 2 != logged 2.5"),
            ("selected_ids", "0;4;9", "0;5;9", "selected_ids entry 1: 4 != logged 5"),
            ("selected_ids", "0;4", "0;4;9", "selected_ids: 2 entries != logged 3"),
            ("selected_ids", "", "3", "selected_ids: 0 entries != logged 1"),
            ("wealths", "1.5;2;3", "1.5;2", "wealths: 3 entries != logged 2"),
        ],
    )
    def test_a_cell_mismatch_names_one_entry_or_the_counts(self, name, got, logged, message):
        assert _first_difference(name, got, logged, "2;7;8") == message

    def test_replay_reads_the_manifest_once(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, base_config_doc()), "--out", str(out)]) == 0
        read = []
        real = runio._read_json
        monkeypatch.setattr(runio, "_read_json", lambda path, error: read.append(Path(path).name) or real(path, error))
        assert main(["replay", "--in", str(out)]) == 0
        assert read.count("manifest.json") == 1

    def test_overflowing_and_ruined_wealths_replay(self, tmp_path):
        # Under max bets a risk of 0 at alpha 0.5 about doubles the wealth
        # each round, past the largest double after ~1,024 rounds, and a risk
        # of 1 leaves a millionth of it.
        doc = base_config_doc()
        doc.update(n_candidates=2, alpha=0.5, d_stop=2, t_max=1100, betting={"strategy": "max"})
        doc["acquisition"] = {"policy": "full_batch", "batch_size": 1}
        doc["source"] = {"kind": "synthetic", "arms": [{"dist": "point", "value": 0.0}, {"dist": "point", "value": 1.0}]}
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        last = (out / "rounds.csv").read_text(encoding="utf-8").splitlines()[-1]
        assert last.split(",")[4] == "inf;0"
        assert replay_check(out) == 1100

    def test_replay_writes_nothing_into_the_run_directory(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, base_config_doc()), "--out", str(out)]) == 0
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
        assert replay_check(out) > 0
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before

    def test_empty_log_is_rejected(self, tmp_path):
        cfg_path = write_doc(tmp_path, base_config_doc())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        (out / "rounds.csv").write_text("trial,t,tested_ids,risks,wealths,selected_ids\n")
        with pytest.raises(ReplayMismatch):
            replay_check(out)


RUNS = Path(__file__).resolve().parent / "data" / "runs"


class TestEarlierRunDirectories:
    """Run directories written by earlier versions of ecalib 0.1.0.  Before
    the config echo wrote every field: a single-metric simulate, a K=2
    composite with a fixed_sequence_order, and a calibrate against
    demo_oracle.  Before the step-up closure cut at sorted values: a
    200-arm e-BH simulate at batch 20 whose certified set changes often."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name, rounds", [("simulate", 40), ("composite", 60), ("calibrate", 30), ("ebh_wide", 40)])
    def test_replay_reproduces_them(self, name, rounds, layout):
        with one_run_layout(layout):
            assert replay_check(RUNS / name) == rounds

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", ["simulate", "composite", "calibrate", "ebh_wide"])
    def test_rerun_gives_the_same_bytes_and_plan(self, tmp_path, name, layout):
        old = read_manifest(RUNS / name)
        plan = parse_config(old["config"])
        out = tmp_path / name
        argv = ["--config", write_doc(tmp_path, old["config"]), "--out", str(out)]
        if isinstance(plan.source, OracleSpec):
            # The logged command names the interpreter as python3; the new
            # manifest records the command that ran.
            command = shlex.join([sys.executable, *shlex.split(plan.source.command)[1:]])
            argv = ["calibrate", *argv, "--oracle", command]
            plan = dataclasses.replace(plan, source=dataclasses.replace(plan.source, command=command))
        else:
            argv = ["simulate", *argv]
        with one_run_layout(layout):
            assert main(argv) == 0
        for artifact in ("rounds.csv", "summary.csv", "final.json"):
            assert (out / artifact).read_bytes() == (RUNS / name / artifact).read_bytes()
        assert parse_config(read_manifest(out)["config"]) == plan

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name, k", [("simulate", 1), ("simulate", 17), ("ebh_wide", 23)])
    def test_replay_stops_at_the_first_mismatch(self, tmp_path, monkeypatch, name, k, layout):
        # Round k's wealths cell is checked as round k ends, so round k + 1
        # is never served.
        run = tmp_path / name
        shutil.copytree(RUNS / name, run)
        cells = (run / "rounds.csv").read_text(encoding="utf-8").splitlines()[k].split(",")
        tested, wealths = cells[2].split(";"), cells[4].split(";")
        edited = fmt17(float(wealths[0]) * 1.0001)
        edit_rounds(run, k, 4, ";".join([edited, *wealths[1:]]))
        served = []
        query = runio.ReplaySource.query
        monkeypatch.setattr(runio.ReplaySource, "query",
                            lambda self, t, ids, token: served.append(t) or query(self, t, ids, token))
        with one_run_layout(layout), pytest.raises(ReplayMismatch) as mismatch:
            replay_check(run)
        assert str(mismatch.value) == (f"{run / 'rounds.csv'} line {k + 1}: wealths entry 0 (id {tested[0]}): "
                                       f"{wealths[0]} != logged {edited}")
        assert served == list(range(1, k + 1))


    @pytest.mark.parametrize("name", ["simulate", "calibrate"])
    @pytest.mark.parametrize(
        "tamper, artifact",
        [
            (lambda d: edit_final(d, selected=[0, 1, 2, 3]), "final.json"),
            (lambda d: edit_final(d, T=7), "final.json"),
            (lambda d: edit_final(d, stop_reason="reached_d"), "final.json"),
            (lambda d: edit_lines(d / "summary.csv", 4, lambda cells: [*cells[:4], fmt17(float(cells[4]) + 1)]),
             "summary.csv"),
        ],
        ids=["selected", "T", "stop_reason", "summary_row"],
    )
    def test_a_tampered_certificate_is_refused(self, tmp_path, caplog, name, tamper, artifact):
        run = tmp_path / name
        shutil.copytree(RUNS / name, run)
        assert main(["replay", "--in", str(run)]) == 0
        tamper(run)
        caplog.clear()
        assert main(["replay", "--in", str(run)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith(f"ERROR ecalib: {run / artifact} line ")


    def test_a_literal_step_up_manifest_is_refused_not_mismatched(self, tmp_path, caplog):
        # ebh_wide logged the closure; its manifest asking for the literal
        # set is a config error, found before any round is replayed.
        run = tmp_path / "ebh_wide"
        shutil.copytree(RUNS / "ebh_wide", run)
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["literal_set"] = True
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            replay_check(run)
        caplog.clear()
        assert main(["replay", "--in", str(run)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: literal_set true under ebh is refused")

    def test_composite_literal_flag_under_fixed_sequence_is_ignored(self):
        config = read_manifest(RUNS / "composite")["config"]
        assert config["literal_set"] is True and config["selection_rule"] == "fixed_sequence"
        assert parse_config(config) == parse_config({k: v for k, v in config.items() if k != "literal_set"})

    def test_a_claimed_candidate_count_beyond_the_bound_is_refused(self, tmp_path, caplog):
        # An oracle config claims N without listing arms; replay refuses it
        # before the engine allocates N processes.
        run = tmp_path / "calibrate"
        shutil.copytree(RUNS / "calibrate", run)
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["n_candidates"] = 10**13
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        caplog.clear()
        assert main(["replay", "--in", str(run)]) == 1
        assert error_lines(caplog) == [f"ERROR ecalib: n_candidates must be <= {MAX_CANDIDATES}, got {10**13}"]


def edit_final(run_dir, **changes) -> None:
    path = run_dir / "final.json"
    doc = {**json.loads(path.read_text(encoding="utf-8")), **changes}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class TestValidateReportSweep:
    def validate_doc(self):
        doc = base_config_doc()
        doc["t_max"] = 60
        return doc

    def test_validate_gate_and_artifacts(self, tmp_path):
        cfg_path = write_doc(tmp_path, self.validate_doc())
        out = tmp_path / "val"
        assert main(["validate", "--config", cfg_path, "--trials", "5", "--out", str(out)]) == 0
        final = json.loads((out / "final.json").read_text())
        assert final["trials"] == 5
        assert final["gate"]["metric"] == "fwer_hat"
        assert final["gate"]["pass"] is True
        assert final["gate"]["margin_3sigma"] == pytest.approx(3.0 * math.sqrt(0.1 * 0.9 / 5))
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert [r["t"] for r in rows[:3]] == ["1", "2", "3"]

    def test_report_aggregates_runs(self, tmp_path):
        cfg_path = write_doc(tmp_path, self.validate_doc())
        runs = tmp_path / "runs"
        assert main(["validate", "--config", cfg_path, "--trials", "3", "--out", str(runs / "r1")]) == 0
        assert main(["validate", "--config", cfg_path, "--trials", "3", "--out", str(runs / "r2"), "--seed", "8"]) == 0
        report = tmp_path / "report.csv"
        assert main(["report", "--in", str(runs), "--out", str(report)]) == 0
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["run"] for r in rows} == {"r1", "r2"}
        assert len(rows) == 120

    def test_report_with_no_runs_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--in", str(empty)]) == 2

    def test_sweep_grid_shape(self, tmp_path):
        doc = self.validate_doc()
        doc["t_max"] = 30
        doc["sweep"] = {"epsilon": [0.2, 0.5], "strategy": ["unit", "max"]}
        cfg_path = write_doc(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--trials", "2", "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {(r["strategy"], r["epsilon"]) for r in rows} == {
            ("unit", "0.2"), ("unit", "0.5"), ("max", "0.2"), ("max", "0.5"),
        }

    def test_sweep_without_grid_is_an_error(self, tmp_path):
        cfg_path = write_doc(tmp_path, self.validate_doc())
        assert main(["sweep", "--config", cfg_path, "--trials", "2", "--out", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, tmp_path, caplog, command, workers):
        doc = self.validate_doc()
        doc["sweep"] = {"epsilon": [0.2]}
        cfg_path = write_doc(tmp_path, doc)
        out = tmp_path / "w"
        argv = [command, "--config", cfg_path, "--trials", "2", "--out", str(out), "--workers", workers]
        assert main(argv) == 1
        assert f"--workers must be >= 1, got {workers}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, tmp_path, caplog, command, trials):
        doc = self.validate_doc()
        doc["sweep"] = {"epsilon": [0.2]}
        cfg_path = write_doc(tmp_path, doc)
        out = tmp_path / "t"
        argv = [command, "--config", cfg_path, "--trials", trials, "--out", str(out)]
        assert main(argv) == 1
        assert f"--trials must be >= 1, got {trials}" in caplog.text
        assert "M must be" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("t_max", [10**30, MAX_T_MAX + 1])
    def test_t_max_beyond_the_monte_carlo_arrays_rejected(self, tmp_path, caplog, command, t_max):
        doc = self.validate_doc()
        doc["t_max"] = t_max
        doc["sweep"] = {"epsilon": [0.2]}
        out = tmp_path / "t"
        argv = [command, "--config", write_doc(tmp_path, doc), "--trials", "1", "--out", str(out)]
        assert main(argv) == 1
        assert error_lines(caplog) == [
            f"ERROR ecalib: t_max must be <= {MAX_T_MAX} for Monte Carlo trials, got {t_max}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12])
    def test_trials_beyond_the_limit_rejected(self, tmp_path, caplog, command, trials):
        doc = self.validate_doc()
        doc["sweep"] = {"epsilon": [0.2]}
        out = tmp_path / "t"
        argv = [command, "--config", write_doc(tmp_path, doc), "--trials", str(trials), "--out", str(out)]
        assert main(argv) == 1
        assert error_lines(caplog) == [f"ERROR ecalib: --trials must be <= {MAX_TRIALS}, got {trials}"]
        assert not out.exists()

    def test_t_max_at_the_limit_is_accepted(self, tmp_path):
        doc = self.validate_doc()
        doc["t_max"] = MAX_T_MAX
        plan = load_config(write_doc(tmp_path, doc))
        assert plan.cfg.t_max == MAX_T_MAX
        check_t_max(plan.cfg.t_max)

    @pytest.mark.parametrize("command", ["simulate", "validate", "sweep"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_rejected(self, tmp_path, caplog, command, seed):
        doc = self.validate_doc()
        doc["sweep"] = {"epsilon": [0.2]}
        out = tmp_path / "s"
        argv = [command, "--config", write_doc(tmp_path, doc), "--out", str(out), "--seed", seed]
        if command != "simulate":
            argv += ["--trials", "2"]
        assert main(argv) == 1
        assert error_lines(caplog) == [f"ERROR ecalib: --seed must be in [0, 2**64), got {seed}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, axis",
        [
            ({"strategy": ["agrapa", "foo"]}, "sweep.strategy[1] must be one of: unit, max, agrapa, ons"),
            ({"strategy": ["lbow"]}, "sweep.strategy[0] must be one of"),
            ({"alpha": ["abc"]}, "sweep.alpha[0] must be a JSON number"),
            ({"alpha": [0.2, 1.5]}, "sweep.alpha[1] 1.5: alpha out of (0,1)"),
            ({"delta": [0.1, 0]}, "sweep.delta[1] 0: delta out of (0,1)"),
            ({"epsilon": [0.5, -0.1]}, "sweep.epsilon[1] -0.1: acquisition epsilon out of [0,1]"),
            ({"alpha": 0.2}, "sweep.alpha must be a nonempty JSON list"),
        ],
    )
    def test_bad_sweep_value_refused_before_any_cell(self, tmp_path, caplog, sweep, axis):
        doc = self.validate_doc()
        doc["sweep"] = sweep
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_doc(tmp_path, doc), "--trials", "2", "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: ") and axis in line
        assert not (out / "sweep.csv").exists()

    def test_every_bad_sweep_value_in_one_error(self):
        doc = self.validate_doc()
        doc["sweep"] = {"strategy": ["foo", "unit"], "alpha": ["abc", 1.5, 0.3]}
        with pytest.raises(InvalidConfig) as exc:
            parse_config(doc)
        assert [v.split(" ")[0] for v in exc.value.violations] == [
            "sweep.strategy[0]", "sweep.alpha[0]", "sweep.alpha[1]",
        ]

    def test_broken_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["validate", "--config", str(path), "--trials", "2", "--out", str(tmp_path / "v")]) == 1

    def test_calibrate_refuses_a_synthetic_source(self, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["calibrate", "--config", write_doc(tmp_path, base_config_doc()), "--out", str(out)]) == 1
        assert error_lines(caplog) == ["ERROR ecalib: calibrate needs an oracle source"]
        assert not out.exists()

    def test_synthetic_commands_reject_oracle_sources(self, tmp_path):
        doc = base_config_doc()
        doc["acquisition"] = {"policy": "uniform_all", "batch_size": 1}
        doc["source"] = {"kind": "oracle", "command": "true"}
        cfg_path = write_doc(tmp_path, doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1


class TestEnumFields:
    def test_omitted_defaults_run_as_written_out(self, tmp_path):
        omitted = base_config_doc()
        del omitted["acquisition"]["policy"]
        del omitted["betting"]
        written = base_config_doc()
        written["acquisition"]["policy"] = "uniform_all"
        written["betting"] = {"strategy": "agrapa"}
        plan = parse_config(omitted)
        assert plan.cfg.acquisition.policy is AcquisitionPolicy.UNIFORM_ALL
        assert plan.cfg.betting.strategy is BettingStrategy.AGRAPA
        runs = []
        for name, doc in (("omitted", omitted), ("written", written)):
            out = tmp_path / name
            assert main(["simulate", "--config", write_doc(tmp_path, doc, f"{name}.json"), "--out", str(out)]) == 0
            runs.append((out / "rounds.csv").read_bytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "field, change",
        [
            ("direction", {"direction": "risk_below"}),
            ("selection_rule", {"selection_rule": "bonferroni"}),
            ("acquisition.policy", {"acquisition": AcquisitionSpec("eps_greedy", 0.3)}),
            ("betting.strategy", {"betting": BettingSpec("agrapa")}),
            ("extra_metrics[0].direction", {"extra_metrics": (MetricSpec(0.5, "risk_below"),)}),
        ],
    )
    def test_non_member_refused(self, field, change):
        cfg = dataclasses.replace(parse_config(base_config_doc()).cfg, **change)
        with pytest.raises(InvalidConfig, match=re.escape(f"{field} must be a ")):
            validate_config(cfg)
        with pytest.raises(InvalidConfig):
            run_altt(cfg, parse_config(base_config_doc()).source.make_source(cfg.seed, 0))


def oracle_config_doc() -> dict:
    doc = base_config_doc()
    doc["acquisition"] = {"policy": "full_batch", "batch_size": 1}
    doc["source"] = {"kind": "oracle", "command": f"{sys.executable} -m ecalib.demo_oracle --means 0.1,0.3,0.7"}
    return doc


class TestUserSuppliedPaths:
    """Each bad path or flag ends in one ERROR line naming it and exit 1."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config(self, tmp_path, caplog, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"{\"alpha\": \xff}")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: ") and str(path) in line
        assert not out.exists()

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_bad_timeout_refused_before_start(self, tmp_path, caplog, timeout):
        out = tmp_path / "run"
        argv = ["calibrate", "--config", write_doc(tmp_path, oracle_config_doc()), "--timeout", timeout, "--out", str(out)]
        assert main(argv) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: --timeout must be finite and > 0")
        assert not out.exists()

    @pytest.mark.parametrize("binary", ["definitely-not-a-real-binary", "DIR"])
    def test_oracle_that_cannot_start(self, tmp_path, caplog, binary):
        binary = str(tmp_path) if binary == "DIR" else binary
        argv = ["calibrate", "--config", write_doc(tmp_path, oracle_config_doc()), "--oracle", binary,
                "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: cannot start oracle") and binary in line

    @pytest.mark.parametrize("where", ["source.command", "--oracle"])
    @pytest.mark.parametrize("command", ["", "   ", "python3 'unterminated"], ids=["empty", "blank", "unsplittable"])
    def test_oracle_command_without_a_program(self, tmp_path, caplog, where, command):
        doc = oracle_config_doc()
        argv = ["calibrate", "--out", str(tmp_path / "run")]
        if where == "--oracle":
            argv += ["--oracle", command]
        else:
            doc["source"]["command"] = command
        assert main(argv + ["--config", write_doc(tmp_path, doc)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith(f"ERROR ecalib: {where} {command!r}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_on_an_existing_file(self, tmp_path, caplog, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("x", encoding="utf-8")
        out = str(blocker / "run" if below else blocker)
        argv = [command, "--config", write_doc(tmp_path, base_config_doc()), "--out", out]
        if command == "validate":
            argv += ["--trials", "2"]
        assert main(argv) == 1
        [line] = error_lines(caplog)
        assert line.startswith(f"ERROR ecalib: --out {out!r}: cannot create directory")
        assert blocker.read_text(encoding="utf-8") == "x"

    @pytest.mark.parametrize("target", ["missing/report.csv", "."])
    def test_report_out_unwritable(self, tmp_path, caplog, target):
        run = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, base_config_doc()), "--out", str(run)]) == 0
        caplog.clear()
        out = str(tmp_path / target)
        assert main(["report", "--in", str(run), "--out", out]) == 1
        [line] = error_lines(caplog)
        assert line.startswith(f"ERROR ecalib: --out {out!r}")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.write_text("round,tpr\n1,0.5\n", encoding="utf-8"), "{p}: header ['round', 'tpr'] != "),
            (lambda p: p.write_bytes(b"t,tpr,fwer,fdr,mean_set_size\n1,\xff,0,0,0\n"), "{p} is not a UTF-8 CSV file"),
            (lambda p: (p.unlink(), p.mkdir()), "cannot read {p}: "),
            (lambda p: p.write_text("t,tpr,fwer,fdr,mean_set_size\n1,0,0,0,0\n2,0\n", encoding="utf-8"),
             "{p} line 3: 2 fields, not 5"),
        ],
        ids=["wrong_header", "not_utf8", "directory", "short_row"],
    )
    def test_report_on_an_unreadable_summary(self, tmp_path, caplog, damage, message):
        run = tmp_path / "run"
        assert main(["simulate", "--config", write_doc(tmp_path, base_config_doc()), "--out", str(run)]) == 0
        damage(run / "summary.csv")
        caplog.clear()
        out = tmp_path / "report.csv"
        assert main(["report", "--in", str(run), "--out", str(out)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: " + message.format(p=run / "summary.csv"))
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda d: (d / "manifest.json").unlink(), "cannot read {d}/manifest.json"),
            (lambda d: (d / "manifest.json").write_text("{oops"), "{d}/manifest.json is not valid JSON"),
            (lambda d: (d / "manifest.json").write_bytes(b"\xff"), "{d}/manifest.json is not valid JSON"),
            (lambda d: (d / "manifest.json").write_text('{"tool": "ecalib"}'), "{d}/manifest.json holds no config"),
            (lambda d: (d / "rounds.csv").unlink(), "cannot read {d}/rounds.csv"),
            (lambda d: edit_rounds(d, 0, 1, "round"), "{d}/rounds.csv: header"),
            (lambda d: edit_rounds(d, 3, 1, "x"), "{d}/rounds.csv line 4: trial and t ['0', 'x'], not ['0', '3']"),
            (lambda d: edit_rounds(d, 2, 2, "0;z"), "{d}/rounds.csv line 3: engine asked for ids"),
            (lambda d: edit_rounds(d, 5, 5, "1;q"), "{d}/rounds.csv line 6: selected_ids"),
            (lambda d: edit_rounds(d, 2, 3, "0.5x"), "{d}/rounds.csv line 3: could not convert string to float"),
            (lambda d: (d / "rounds.csv").write_bytes(b"\xff"), "{d}/rounds.csv is not a UTF-8 CSV file"),
            (lambda d: edit_lines(d / "rounds.csv", 2, lambda cells: cells[:5]), "{d}/rounds.csv line 3: 5 fields, not 6"),
            (lambda d: edit_rounds(d, 2, 0, "1"), "{d}/rounds.csv line 3: trial and t ['1', '2']"),
            (lambda d: edit_lines(d / "rounds.csv", -1, lambda cells: None), "{d}/rounds.csv: round "),
            (lambda d: edit_lines(d / "rounds.csv", -1, lambda cells: [cells, [cells[0], str(int(cells[1]) + 1), *cells[2:]]]),
             "{d}/rounds.csv: replay produced "),
            (lambda d: edit_lines(d / "rounds.csv", 1, lambda cells: [f'"{c}"' for c in cells]),
             "{d}/rounds.csv line 2: trial and t ['\"0\"', '\"1\"']"),
            (lambda d: (d / "final.json").unlink(), "cannot read {d}/final.json"),
        ],
        ids=["no_manifest", "manifest_not_json", "manifest_not_utf8", "manifest_without_config",
             "no_rounds", "wrong_header", "bad_round", "bad_tested_id", "bad_selected_id", "bad_risk",
             "rounds_not_utf8", "short_row", "other_trial", "missing_round", "extra_round", "quoted_cells",
             "no_final"],
    )
    def test_unreadable_run_directory(self, tmp_path, caplog, damage, message):
        run = tmp_path / "run"
        doc = base_config_doc()
        doc["d_stop"] = 1
        assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(run)]) == 0
        damage(run)
        with pytest.raises(ReplayMismatch):
            replay_check(run)
        caplog.clear()
        assert main(["replay", "--in", str(run)]) == 1
        [line] = error_lines(caplog)
        assert line.startswith("ERROR ecalib: " + message.format(d=run))


def edit_lines(path, n: int, change) -> None:
    """Replace the cells of line n (0-based) of a CSV file with change(cells):
    None drops the line, and a list of lists puts several in its place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n %= len(lines)
    new = change(lines[n].split(","))
    new = [] if new is None else new if isinstance(new[0], list) else [new]
    lines[n : n + 1] = [",".join(cells) for cells in new]
    path.write_text("".join(line + "\r\n" for line in lines), encoding="utf-8", newline="")


def edit_rounds(run_dir, row: int, col: int, value: str) -> None:
    edit_lines(run_dir / "rounds.csv", row, lambda cells: [*cells[:col], value, *cells[col + 1 :]])
