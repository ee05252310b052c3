"""Tests of the benchmark itself, on shrunken instances of each workload.

Stdlib only; run from the repository root:

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
T_MAX, TRIALS = 40, 2


def small(name: str):
    """The workload with t_max and M cut down; everything else unchanged."""
    def make(seed: int) -> workloads.Workload:
        w = workloads.WORKLOADS[name](seed)
        return dataclasses.replace(w, trials=TRIALS, mc_config=dict(w.mc_config, t_max=T_MAX),
                                   logged_config=dict(w.logged_config, t_max=T_MAX))
    return make


def quick_run(name: str, trace: bool):
    with mock.patch.multiple(harness, MIN_CYCLES=1, MIN_ROUND_SAMPLES=0, PROBES_PER_CYCLE=1):
        return harness.run(small(name), 7, 0.0, trace)


class BenchmarkTest(unittest.TestCase):
    def test_tracing_leaves_outputs_byte_identical(self):
        for name in workloads.WORKLOADS:
            w = small(name)(7)
            outputs = []
            for traced in (False, True):
                work = harness.WORK / "selftest" / f"{name}_{int(traced)}"
                shutil.rmtree(work, ignore_errors=True)
                harness.write_configs(w, work)
                tally = harness.Tally()
                tr = tracing.Tracer() if traced else None
                if tr is not None:
                    tr.install()
                try:
                    harness.run_cycle(w, work, tally, {}, workers=(1,), tracer=tr)
                finally:
                    if tr is not None:
                        tr.restore()
                self.assertEqual(tally.failed, 0, tally.problems)
                outputs.append(((work / "mc_w1" / "final.json").read_bytes(),
                                (work / "logged" / "rounds.csv").read_bytes()))
            self.assertEqual(outputs[0], outputs[1], name)

    def test_metric_names_match_benchmark_json(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, names in ((False, e2e), (True, layers)):
                result, report = quick_run(name, trace)
                self.assertTrue(result["correct"], (name, trace, report["problems"]))
                self.assertEqual(set(result["metrics"]), names, (name, trace))
                for value in result["metrics"].values():
                    self.assertIsInstance(value, (int, float))

    def test_exact_counters(self):
        # One acquisition stream and one token hash per round, plus one keyed
        # uniform per risk drawn in process.
        expected = {"narrow": 3.0, "wide": 52.0}
        for name, mix64_per_round in expected.items():
            result, report = quick_run(name, True)
            self.assertTrue(result["correct"], report["problems"])
            counters = report["exact_counters"]
            self.assertTrue(set(tracing.EXACT) <= set(counters))
            self.assertEqual(counters["rng.mix64_calls_per_round"], mix64_per_round, name)
            self.assertEqual(counters["rng.token_hashes_unread_per_round"], 1.0, name)
            w = small(name)(7)
            queries = w.trials * T_MAX * w.mc_config["batch_size"]
            self.assertEqual(report["work_counts"], {"runs": w.trials, "rounds": w.trials * T_MAX,
                                                     "queries": queries})

    def test_failed_gate_fails_the_run(self):
        original = harness.cli.main

        def failing_validate(argv):
            original(argv)
            return 1

        with mock.patch.object(harness.cli, "main", failing_validate):
            result, report = quick_run("narrow", False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("validate --workers 1 exits 0", report["problems"])

    def test_checkout_without_sources_exits_nonzero(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "narrow", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
