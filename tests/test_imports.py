"""What each entry point imports, and the package's lazy public names.

The oracle child starts without numpy or scipy, and scipy.special loads
only for a Beta draw or CDF.  Each check runs in a fresh interpreter, since
this test process has long since imported everything.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecalib

SRC = str(Path(__file__).resolve().parent.parent / "src")

# The package's public names, by the module that defines each.
EXPORTS = {
    "core": [
        "AcquisitionPolicy",
        "AcquisitionSpec",
        "BettingSpec",
        "BettingStrategy",
        "CalibrationConfig",
        "Direction",
        "ErrorMetric",
        "GroundTruth",
        "MetricSpec",
        "SelectionRuleName",
        "reliable_set",
        "validate_config",
    ],
    "eprocess": ["BetBound", "bet_bound", "payoff", "quantile_transform", "update"],
    "betting": ["BettingState", "next_bet", "observe"],
    "selection": ["SelectionResult", "bh", "bonferroni", "by", "ebh", "fixed_sequence"],
    "acquisition": ["select_batch"],
    "orchestrator": ["RiskSource", "RunResult", "StopReason", "run_altt", "run_ltt"],
    "simharness": [
        "Bernoulli",
        "Beta",
        "CompositeSyntheticSpec",
        "MetricsSummary",
        "PointMass",
        "SyntheticSpec",
        "run_trials",
        "sample_risk",
    ],
}


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs ``code``."""
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_the_oracle_child_loads_neither_numpy_nor_scipy():
    loaded = loaded_after("import ecalib.demo_oracle")
    assert "ecalib.demo_oracle" in loaded
    assert not {m for m in loaded if m.split(".")[0] in ("numpy", "scipy")}


def test_config_parsing_and_the_oracle_client_start_no_process_pool():
    # What the benchmark's set-up probe imports; only run_trials with more
    # than one worker needs concurrent.futures, and it imports it there.
    loaded = loaded_after("import ecalib.runio, ecalib.oracle")
    assert {"ecalib.runio", "ecalib.oracle", "ecalib.simharness"} <= loaded
    assert not {m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")}


# Bernoulli runs through the CLI: an oracle run, its replay and a synthetic
# run.  Nothing in them needs scipy.
BERNOULLI_RUNS = """
import json, shlex
from ecalib import cli

out = {out!r}
config = {{
    "n_candidates": 2, "alpha": 0.5, "delta": 0.1, "direction": "risk_below", "error_metric": "fwer",
    "selection_rule": "bonferroni", "t_max": 20, "d_stop": 2, "seed": 3,
    "source": {{"kind": "oracle", "command": shlex.join([sys.executable, "-m", "ecalib.demo_oracle", "--means", "0.1,0.9"])}},
}}
with open(out + "/oracle.json", "w") as f:
    json.dump(config, f)
config["source"] = {{"kind": "synthetic", "arms": [{{"dist": "bernoulli", "p": 0.1}}, {{"dist": "bernoulli", "p": 0.9}}]}}
with open(out + "/synthetic.json", "w") as f:
    json.dump(config, f)
assert cli.main(["calibrate", "--config", out + "/oracle.json", "--out", out + "/calibrate"]) == 0
assert cli.main(["replay", "--in", out + "/calibrate"]) == 0
assert cli.main(["simulate", "--config", out + "/synthetic.json", "--out", out + "/simulate"]) == 0
"""


def test_bernoulli_runs_leave_scipy_special_unloaded(tmp_path):
    loaded = loaded_after(BERNOULLI_RUNS.format(out=str(tmp_path)))
    assert {"ecalib.cli", "ecalib.simharness", "numpy"} <= loaded
    assert "scipy.special" not in loaded


def test_a_beta_draw_loads_scipy_special(tmp_path):
    loaded = loaded_after(
        BERNOULLI_RUNS.format(out=str(tmp_path))
        + "from ecalib.simharness import Beta, SyntheticSpec, sample_risk\n"
        + "sample_risk(SyntheticSpec((Beta(2.0, 5.0),)), 0, 1, 0)\n"
    )
    assert "scipy.special" in loaded


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_public_name_resolves_to_its_module_attribute(module, name):
    assert getattr(ecalib, name) is getattr(importlib.import_module(f"ecalib.{module}"), name)
    assert name in dir(ecalib)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        ecalib.nope
    assert not hasattr(ecalib, "nope")
