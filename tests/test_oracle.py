"""Subprocess oracle protocol: handshake, happy path, and every abort path."""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import pytest
from conftest import recorded
from hypothesis import given, settings
from hypothesis import strategies as st

from ecalib import demo_oracle
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
from ecalib.runio import OracleSpec, parse_config, replay_check


def demo_argv(means: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "ecalib.demo_oracle", "--means", means, *extra]


def after_hello(script: str) -> list[str]:
    """The argv of a child that acknowledges hello and then runs script, with
    os and sys imported; os.write(1, ...) writes unbuffered bytes."""
    hello = "import os, sys; sys.stdin.readline(); os.write(1, b'{\"type\": \"hello\"}\\n'); "
    return [sys.executable, "-c", hello + script]


def oracle_config(n, **overrides) -> CalibrationConfig:
    base = CalibrationConfig(
        n_candidates=n,
        alpha=0.5,
        delta=0.1,
        direction=Direction.RISK_BELOW,
        selection_rule=SelectionRuleName.BONFERRONI,
        acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=n),
        betting=BettingSpec(BettingStrategy.MAX),
        t_max=10,
        d_stop=1,
        seed=0,
    )
    return dataclasses.replace(base, **overrides)


class TestCommand:
    @pytest.mark.parametrize("command", ["", "  ", [], "python3 'unterminated"])
    def test_no_program_is_an_oracle_error(self, command):
        with pytest.raises(OracleError, match="oracle command"):
            oracle_client(command, oracle_config(2))


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
            betting=BettingSpec(BettingStrategy.AGRAPA),
        )
        with oracle_client(demo_argv("0.2,0.5,0.8", "--seed", "7"), cfg) as source:
            via_oracle = recorded(run_altt, cfg, source)
        via_mirror = recorded(run_altt, cfg, Mirror())
        assert via_oracle.records == via_mirror.records
        assert via_oracle.selected == via_mirror.selected

    def test_command_string_accepted(self):
        cfg = oracle_config(1)
        command = f"{sys.executable} -m ecalib.demo_oracle --means 0.0 --dist point"
        with oracle_client(command, cfg) as source:
            assert source.query(1, [0], "00" * 8) == [0.0]

    def test_a_request_larger_than_a_pipe_buffer_is_answered(self):
        # 20,000 ids make a request of about 140 KB; a Linux pipe holds 64 KB,
        # so the request goes out in several writes while the child reads.
        n = 20_000
        answer = (
            "line = json.loads(sys.stdin.readline()); "
            "os.write(1, json.dumps({'type': 'risks', 'round': line['round'], "
            "'values': [0.5] * len(line['ids'])}).encode() + b'\\n'); sys.stdin.readline()"
        )
        writes = []
        with oracle_client(after_hello("import json; " + answer), oracle_config(n)) as source:
            write = source._write
            with mock.patch.object(source, "_write", side_effect=lambda data: writes.append(len(data)) or write(data)):
                assert source.query(1, range(n), "00" * 8) == [0.5] * n
        assert len(writes) > 1 and writes[0] > 64 * 1024


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

    def test_child_that_stops_reading_times_out_and_is_reaped(self):
        # The child answers hello and then reads nothing: a request larger
        # than the pipe's buffer can never be written in full.
        script = "import sys, time; sys.stdin.readline(); print('{\"type\": \"hello\"}', flush=True); time.sleep(10)"
        client = oracle_client([sys.executable, "-c", script], oracle_config(2), timeout=1.0)
        started = time.monotonic()
        with pytest.raises(OracleTimeout, match=r"read no test request within 1\.0s"):
            client.query(1, list(range(30_000)), "00" * 8)
        assert time.monotonic() - started < 3.0
        assert client._proc.poll() is not None
        client.close()

    def test_non_utf8_answer_is_malformed_at_once(self):
        client = oracle_client(after_hello("sys.stdin.readline(); os.write(1, b'\\xff\\xfe\\n'); sys.stdin.read()"),
                               oracle_config(2), timeout=5.0)
        with client:
            started = time.monotonic()
            with pytest.raises(OracleMalformed, match="not a JSON record"):
                client.query(1, [0, 1], "00" * 8)
            assert time.monotonic() - started < 1.0

    @pytest.mark.parametrize("echo", ["true", "1.0"])
    def test_round_echo_must_be_a_json_integer(self, echo):
        answer = f'{{"type": "risks", "round": {echo}, "values": [0.5, 0.5]}}\\n'
        with oracle_client(after_hello(f"sys.stdin.readline(); os.write(1, b'{answer}'); sys.stdin.read()"),
                           oracle_config(2)) as client:
            with pytest.raises(OracleMalformed, match=f"answer for round {re.escape(echo.title())} to a round-1"):
                client.query(1, [0, 1], "00" * 8)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_an_int_too_large_for_a_float_is_out_of_range(self, sign):
        answer = f'{{"type": "risks", "round": 1, "values": [0.5, {sign}1{"0" * 400}]}}\\n'
        with oracle_client(after_hello(f"sys.stdin.readline(); os.write(1, b'{answer}'); sys.stdin.read()"),
                           oracle_config(2)) as client:
            size = f"<a {'negative ' if sign else ''}1,329-bit integer>"
            with pytest.raises(OracleOutOfRangeRisk, match=f"^round 1: risk {size} for id 1 out of"):
                client.query(1, [0, 1], "00" * 8)

    def test_an_out_of_range_answer_names_its_first_value(self):
        # 30,000 ids answered 1.2 each: the error names the first, with its
        # id and round, instead of printing the whole reply.
        n = 30_000
        with oracle_client(demo_argv(",".join(["0.5"] * n), "--misbehave", "range"), oracle_config(n)) as source:
            source.query(1, range(n), "00" * 8)
            with pytest.raises(OracleOutOfRangeRisk) as info:
                source.query(2, range(n), "00" * 8)
        assert str(info.value) == "round 2: risk 1.2 for id 0 out of [0,1]"

    @pytest.mark.parametrize("values, message", [
        ('[0.5, "x"]', "round 1: non-numeric risk 'x' for id 1"),
        ("[0.5]", "round 1: values must list one risk per requested id, got [0.5]"),
    ])
    def test_a_malformed_answer_names_what_is_wrong(self, values, message):
        answer = f'{{"type": "risks", "round": 1, "values": {values}}}\\n'
        with oracle_client(after_hello(f"sys.stdin.readline(); os.write(1, b'{answer}'); sys.stdin.read()"),
                           oracle_config(2)) as client:
            with pytest.raises(OracleMalformed) as info:
                client.query(1, [0, 1], "00" * 8)
        assert str(info.value) == message

    def test_a_second_answer_in_one_write_is_refused_as_the_next(self):
        answer = '{"type": "risks", "round": 1, "values": [0.5, 0.5]}\\n'
        script = f"sys.stdin.readline(); os.write(1, b'{answer}' * 2); sys.stdin.read()"
        with oracle_client(after_hello(script), oracle_config(2)) as client:
            assert client.query(1, [0, 1], "00" * 8) == [0.5, 0.5]
            with pytest.raises(OracleMalformed, match="answer for round 1 to a round-2 request"):
                client.query(2, [0, 1], "00" * 8)

    def test_exit_in_the_middle_of_an_answer(self):
        script = "sys.stdin.readline(); os.write(1, b'{\"type\": \"risks\", \"rou')"
        client = oracle_client(after_hello(script), oracle_config(2))
        with pytest.raises(OracleProcessExit, match=re.escape("""it wrote b'{"type": "risks", "rou'""")):
            client.query(1, [0, 1], "00" * 8)
        assert client._proc.returncode is not None and client._proc.stdout.closed

    def test_candidate_count_mismatch_refused_at_hello(self):
        with pytest.raises(OracleError, match="candidate count mismatch"):
            oracle_client(demo_argv("0.1,0.2,0.3"), oracle_config(2))

    def test_out_of_range_id_is_reported_by_the_oracle(self):
        with oracle_client(demo_argv("0.5,0.5"), oracle_config(2)) as source:
            with pytest.raises(OracleError, match="oracle reported") as info:
                source.query(1, [5], "00" * 8)
        assert type(info.value) is OracleError

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

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reopens the oracle's stdout through /proc")
    def test_close_does_not_wait_for_a_helper_holding_stdout(self):
        client = oracle_client(demo_argv("0.5,0.5"), oracle_config(2))
        # A helper that holds the oracle's stdout open after the oracle exits.
        with open(f"/proc/{client._proc.pid}/fd/1", "wb") as stdout:
            helper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], stdout=stdout)
        try:
            started = time.monotonic()
            client.close()
            assert time.monotonic() - started < 1.0
            assert client._proc.stdout.closed
        finally:
            helper.kill()
            helper.wait()

    def test_an_open_client_runs_no_thread(self):
        threads = threading.active_count()
        with oracle_client(demo_argv("0.5,0.5"), oracle_config(2)) as client:
            assert threading.active_count() == threads
            client.query(1, [0, 1], "00" * 8)
            assert threading.active_count() == threads

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
        argv = ["calibrate", "--config", str(cfg_path), "--oracle", override, "--timeout", "7.5", "--out", str(out)]
        assert main(argv) == 0
        # the manifest records the oracle that ran
        manifest = json.loads((out / "manifest.json").read_text())
        assert parse_config(manifest["config"]).source == OracleSpec(override, 7.5)


# The demo oracle's wire protocol, driven in process on generated stdin.
MEANS = (0.2, 0.5, 0.9)
N = len(MEANS)

HELLO = {"type": "hello", "n_candidates": N, "alpha": 0.5, "direction": "risk_below"}
rounds = st.integers(min_value=-(2**70), max_value=2**70)
valid_requests = st.fixed_dictionaries(
    {"type": st.just("test"), "round": rounds, "ids": st.lists(st.integers(0, N - 1), max_size=6)},
    optional={"token": st.text(max_size=16)},
)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
# Any JSON value but an object.
non_objects = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
not_an_id = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=N), st.booleans(), st.floats(), st.text(max_size=3), st.none()
)
not_a_round = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(), st.lists(rounds, max_size=2))


def _without(key):
    return lambda request: {k: v for k, v in request.items() if k != key}


@st.composite
def with_a_bad_id(draw, request):
    ids = list(request["ids"])
    ids.insert(draw(st.integers(0, len(ids))), draw(not_an_id))
    return {**request, "ids": ids}


bad_requests = st.one_of(
    valid_requests.flatmap(with_a_bad_id),
    valid_requests.map(_without("round")),
    valid_requests.map(_without("ids")),
    st.tuples(valid_requests, not_a_round).map(lambda pair: {**pair[0], "round": pair[1]}),
    st.tuples(valid_requests, json_scalars).map(lambda pair: {**pair[0], "ids": pair[1]}),
    st.tuples(valid_requests, json_scalars.filter(lambda kind: kind != "test")).map(
        lambda pair: {**pair[0], "type": pair[1]}
    ),
)


def _is_object(line: str) -> bool:
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


junk = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"), max_size=30).filter(
    lambda line: not _is_object(line)
)
# (line, request): the request of a valid line, None for a line to refuse.
lines = st.one_of(
    valid_requests.map(lambda request: (json.dumps(request), request)),
    bad_requests.map(lambda request: (json.dumps(request), None)),
    non_objects.map(lambda value: (json.dumps(value), None)),
    junk.map(lambda line: (line, None)),
)
hellos = st.one_of(
    st.just((json.dumps(HELLO), HELLO)),
    non_objects.map(lambda value: (json.dumps(value), None)),
    junk.map(lambda line: (line, None)),
)


class TestDemoOracleProtocol:
    @settings(max_examples=300, deadline=None)
    @given(
        hello=hellos,
        body=st.lists(lines, max_size=8),
        seed=st.integers(0, 2**64 - 1),
        dist=st.sampled_from(["bernoulli", "point"]),
    )
    def test_answers_valid_requests_and_refuses_the_rest(self, hello, body, seed, dist):
        stdin = "".join(line + "\n" for line, _ in [hello, *body])
        stdout = io.StringIO()
        argv = ["--means", ",".join(map(str, MEANS)), "--seed", str(seed), "--dist", dist]
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)), mock.patch.object(sys, "stdout", stdout):
            rc = demo_oracle.main(argv)
        out = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert all(isinstance(doc, dict) and doc.get("type") in ("hello", "risks", "error") for doc in out)

        expected = []
        if hello[1] is None:
            expected.append("error")
        else:
            expected.append({"type": "hello", "stateless": True})
            for _, request in body:
                if request is None:
                    expected.append("error")
                    break
                t = request["round"]
                if dist == "point":
                    values = [MEANS[i] for i in request["ids"]]
                else:
                    values = [1.0 if unit_uniform(seed, t, i) >= 1.0 - MEANS[i] else 0.0 for i in request["ids"]]
                expected.append({"type": "risks", "round": t, "values": values})
        assert rc == (1 if expected[-1] == "error" else 0)
        assert [doc["type"] if doc.get("type") == "error" else doc for doc in out] == expected

    @pytest.mark.parametrize("means", ["0.1,x", "", "0.1,1.5", "nan"])
    def test_bad_means_are_a_usage_error(self, means, capsys):
        with pytest.raises(SystemExit) as info:
            demo_oracle.main(["--means", means])
        assert info.value.code == 2
        assert "--means" in capsys.readouterr().err
