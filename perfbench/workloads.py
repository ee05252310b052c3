"""Generated inputs for each benchmark workload.

Every workload has two configs, so that every end-to-end metric is defined
on every workload:

- ``mc_config`` has a synthetic source and runs through ``ecalib validate``
  (M trials at workers 1 and 2);
- ``logged_config`` runs through ``ecalib calibrate`` (the ``demo_oracle``
  child process, on ``narrow``) or ``ecalib simulate`` (the synthetic spec,
  on ``wide``, once per seed ``seed``, ..., ``seed + logged_seeds - 1``, so
  the M=1 metrics average over several trajectories).  Each writes a full
  run directory, which ``replay_check`` then reproduces ``replays`` times.

``narrow`` holds both paths of the frozen 20-arm instance: Monte Carlo
validation at batch 1 and the live oracle run at batch 4.  They were two
workloads; as one, each run is long enough to average the host's swings.

M is as large as the run allows: at the seed commit one cycle (validate,
the logged runs and their replays) takes about a sixth of a run on
``narrow`` and a ninth on ``wide``, so at least three measured cycles fit.  The acceptance suite's M=500 would take about
20 s per validate call on ``narrow``.

Every instance is built so that no trial stops early: ``d_stop`` can only
be met by certifying unreliable candidates, and the pool of uncertified
candidates never falls below the batch size, so each trial runs ``t_max``
rounds of ``batch_size`` queries.  The seed changes only the generated
inputs.
"""

from __future__ import annotations

import random
import shlex
import sys
from dataclasses import dataclass

# The frozen 20-arm acceptance instance (tests/test_acceptance.py).
NARROW_MEANS = (0.05, 0.06, 0.07, 0.08, 0.11, 0.12, 0.13, 0.18) + tuple(
    0.25 + 0.35 * i / 11 for i in range(12)
)
WIDE_RELIABLE, WIDE_UNRELIABLE = 400, 600


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    mc_config: dict
    trials: int  # M of each validate call
    logged_config: dict
    logged_seeds: int
    replays: int  # replay_check calls per logged run

    @property
    def oracle(self) -> bool:
        return self.logged_config["source"]["kind"] == "oracle"


def _config(n, error_metric, rule, batch, t_max, seed, source) -> dict:
    return {
        "n_candidates": n,
        "alpha": 0.2,
        "delta": 0.1,
        "direction": "risk_below",
        "error_metric": error_metric,
        "selection_rule": rule,
        "acquisition": {"policy": "eps_greedy", "epsilon": 0.25, "batch_size": batch},
        "betting": {"strategy": "agrapa"},
        "t_max": t_max,
        "d_stop": n,
        "batch_size": batch,
        "seed": seed,
        "source": source,
    }


def _bernoulli(means) -> dict:
    return {"kind": "synthetic", "arms": [{"dist": "bernoulli", "p": m} for m in means]}


def narrow(seed: int) -> Workload:
    mc = _config(20, "fwer", "bonferroni", 1, 1000, seed, _bernoulli(NARROW_MEANS))
    command = [sys.executable, "-m", "ecalib.demo_oracle", "--seed", str(seed),
               "--means", ",".join(repr(m) for m in NARROW_MEANS)]
    oracle = {"kind": "oracle", "command": shlex.join(command), "timeout": 60.0}
    logged = _config(20, "fwer", "bonferroni", 4, 2000, seed, oracle)
    return Workload("narrow", seed, mc, 120, logged, 1, 4)


def wide(seed: int) -> Workload:
    rnd = random.Random(seed)
    means = [rnd.uniform(0.05, 0.18) for _ in range(WIDE_RELIABLE)]
    means += [rnd.uniform(0.25, 0.60) for _ in range(WIDE_UNRELIABLE)]
    rnd.shuffle(means)
    # Beta(2, 2(1-m)/m) has mean m.
    arms = [{"dist": "beta", "a": 2.0, "b": 2.0 * (1.0 - m) / m} for m in means]
    cfg = _config(len(means), "fdr", "ebh", 50, 200, seed, {"kind": "synthetic", "arms": arms})
    return Workload("wide", seed, cfg, 8, cfg, 2, 1)


WORKLOADS = {"narrow": narrow, "wide": wide}
