"""Subprocess oracle protocol: handshake, happy path, and every abort path."""

from __future__ import annotations

import dataclasses
import gc
import json
import subprocess
import sys
import warnings
from unittest import mock

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
from ecalib.errors import (
    InvalidConfig,
    OracleError,
    OracleMalformed,
    OracleOutOfRangeRisk,
    OracleProcessExit,
    OracleTimeout,
)
from ecalib.oracle import oracle_client
from ecalib.orchestrator import run_altt
from ecalib.rng import unit_uniform
from ecalib.runio import replay_check


def demo_argv(means: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "ecalib.demo_oracle", "--means", means, *extra]


def oracle_config(n, **overrides) -> CalibrationConfig:
    base = CalibrationConfig(
        n_candidates=n,
        alpha=0.5,
        delta=0.1,
        direction=Direction.RISK_BELOW,
        error_metric=ErrorMetric.FWER,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=n),
        betting=BettingSpec(BettingStrategy.MAX),
        t_max=10,
        d_stop=1,
        batch_size=n,
        seed=0,
    )
    return dataclasses.replace(base, **overrides)


class TestHappyPath:
    def test_point_oracle_certifies_the_good_arm(self):
        cfg = oracle_config(2)
        with oracle_client(demo_argv("0.0,1.0", "--dist", "point"), cfg) as source:
            result = run_altt(cfg, source)
        assert result.selected == frozenset({0})
        assert result.stop_reason.value == "reached_d"
        assert result.T == 5  # MAX bet doubles wealth; 2^5 > 1/(delta/2)

    def test_bernoulli_oracle_matches_a_local_mirror(self):
        # The demo oracle draws 1[u >= 1-mean] with u = unit_uniform(seed, t, id).
        # Serving the same stream in-process must reproduce the run exactly.
        means = [0.2, 0.5, 0.8]

        class Mirror:
            def query(self, round_index, ids, token):
                return [
                    1.0 if unit_uniform(7, round_index, i) >= 1.0 - means[i] else 0.0
                    for i in ids
                ]

        cfg = oracle_config(
            3,
            alpha=0.4,
            t_max=40,
            d_stop=3,
            acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=1),
            batch_size=1,
            betting=BettingSpec(BettingStrategy.AGRAPA),
        )
        with oracle_client(demo_argv("0.2,0.5,0.8", "--seed", "7"), cfg) as source:
            via_oracle = run_altt(cfg, source)
        via_mirror = run_altt(cfg, Mirror())
        assert via_oracle.records == via_mirror.records
        assert via_oracle.selected == via_mirror.selected

    def test_command_string_accepted(self):
        cfg = oracle_config(1)
        command = f"{sys.executable} -m ecalib.demo_oracle --means 0.0 --dist point"
        with oracle_client(command, cfg) as source:
            assert source.query(1, [0], "00" * 8) == [0.0]


class TestAbortPaths:
    def run_to_failure(self, mode, timeout=60.0):
        cfg = oracle_config(2, d_stop=2, t_max=6)
        with oracle_client(demo_argv("0.5,0.5", "--misbehave", mode), cfg, timeout) as source:
            run_altt(cfg, source)

    def test_short_answer(self):
        with pytest.raises(OracleMalformed, match="one risk per requested id"):
            self.run_to_failure("short")

    def test_out_of_range_risk(self):
        with pytest.raises(OracleOutOfRangeRisk, match="out of"):
            self.run_to_failure("range")

    def test_garbage_line(self):
        with pytest.raises(OracleMalformed, match="not a JSON record"):
            self.run_to_failure("garbage")

    def test_wrong_round_echo(self):
        with pytest.raises(OracleMalformed, match="round"):
            self.run_to_failure("wrong_round")

    def test_process_death(self):
        with pytest.raises(OracleProcessExit):
            self.run_to_failure("die")

    def test_timeout(self):
        with pytest.raises(OracleTimeout, match="no answer within"):
            self.run_to_failure("silent", timeout=0.5)

    def test_candidate_count_mismatch_refused_at_hello(self):
        with pytest.raises(OracleError, match="candidate count mismatch"):
            oracle_client(demo_argv("0.1,0.2,0.3"), oracle_config(2))

    def test_immediate_exit_at_hello(self):
        argv = [sys.executable, "-c", "import sys; sys.exit(0)"]
        with pytest.raises(OracleProcessExit):
            oracle_client(argv, oracle_config(2))

    def test_multi_metric_configs_refused(self):
        cfg = oracle_config(
            2, extra_metrics=(MetricSpec(alpha=0.5, direction=Direction.RISK_BELOW),)
        )
        with pytest.raises(InvalidConfig):
            oracle_client(demo_argv("0.5,0.5"), cfg)


class TestShutdown:
    def test_close_releases_the_child_and_its_pipes(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = oracle_client(demo_argv("0.5,0.5"), oracle_config(2))
            client.close()
            proc = client._proc
            assert proc.stdout.closed
            assert proc.returncode is not None
            del client, proc
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_failed_handshake_leaves_no_child_running(self):
        started = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        argv = [sys.executable, "-c", "import time; time.sleep(60)"]
        with mock.patch.object(subprocess, "Popen", recording_popen):
            with pytest.raises(OracleTimeout):
                oracle_client(argv, oracle_config(2), timeout=0.5)
        (proc,) = started
        assert proc.poll() is not None
        assert proc.stdout.closed


class TestCalibrateCommand:
    def test_end_to_end_run_directory(self, tmp_path):
        doc = {
            "n_candidates": 2,
            "alpha": 0.5,
            "delta": 0.1,
            "direction": "risk_below",
            "error_metric": "fwer",
            "selection_rule": "bonferroni",
            "acquisition": {"policy": "full_batch", "batch_size": 2},
            "betting": {"strategy": "max"},
            "t_max": 10,
            "d_stop": 1,
            "batch_size": 2,
            "seed": 0,
            "source": {
                "kind": "oracle",
                "command": f"{sys.executable} -m ecalib.demo_oracle --means 0.0,1.0 --dist point",
            },
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        final = json.loads((out / "final.json").read_text())
        assert final["selected"] == [0]
        assert final["stop_reason"] == "reached_d"
        # the logged run replays without the oracle process
        assert replay_check(out) > 0

    def test_oracle_override_flag(self, tmp_path):
        doc = {
            "n_candidates": 1,
            "alpha": 0.5,
            "delta": 0.1,
            "direction": "risk_below",
            "error_metric": "fwer",
            "selection_rule": "bonferroni",
            "acquisition": {"policy": "full_batch", "batch_size": 1},
            "betting": {"strategy": "max"},
            "t_max": 6,
            "d_stop": 1,
            "batch_size": 1,
            "seed": 0,
            "source": {"kind": "oracle", "command": "definitely-not-a-real-binary"},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        override = f"{sys.executable} -m ecalib.demo_oracle --means 0.0 --dist point"
        assert main(["calibrate", "--config", str(cfg_path), "--oracle", override, "--out", str(out)]) == 0
