"""Config serialization, run-directory artifacts, replay, and the CLI."""

from __future__ import annotations

import csv
import json
import math
import random

import pytest

from ecalib.cli import main
from ecalib.core import (
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    ErrorMetric,
    MetricSpec,
    SelectionRuleName,
)
from ecalib.errors import InvalidConfig
from ecalib.rng import MIXER_ID
from ecalib.runio import (
    OracleSpec,
    ReplayMismatch,
    RunPlan,
    config_to_dict,
    fmt17,
    load_config,
    parse_config,
    read_manifest,
    replay_check,
    write_manifest,
)
from ecalib.simharness import Bernoulli, Beta, CompositeSyntheticSpec, PointMass, SyntheticSpec


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

    def test_empty_log_is_rejected(self, tmp_path):
        cfg_path = write_doc(tmp_path, base_config_doc())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        (out / "rounds.csv").write_text("trial,t,tested_ids,risks,wealths,selected_ids\n")
        with pytest.raises(ReplayMismatch):
            replay_check(out)


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

    def test_broken_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["validate", "--config", str(path), "--trials", "2", "--out", str(tmp_path / "v")]) == 1

    def test_synthetic_commands_reject_oracle_sources(self, tmp_path):
        doc = base_config_doc()
        doc["acquisition"] = {"policy": "uniform_all", "batch_size": 1}
        doc["source"] = {"kind": "oracle", "command": "true"}
        cfg_path = write_doc(tmp_path, doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
