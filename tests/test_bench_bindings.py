"""The benchmark's tracer binds package names by attribute substitution,
and its workloads write config documents for the package to parse.

``perfbench/tracing.py`` wraps functions where the engine looks them up
(``orchestrator.update``, ``cli.run_trials``, ...).  A rename or a dropped
import breaks the benchmark without failing any package test; this test
installs the tracer, counts its substitutions and checks that ``restore``
puts every original back.  A config format change breaks it the same way,
so every workload config is parsed here too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ecalib import betting, eprocess, orchestrator, runio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Substitutions Tracer.install makes; a changed count means a changed binding.
N_SUBSTITUTIONS = 39


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    yield workloads
    sys.modules.pop("workloads", None)


def test_tracer_installs_every_binding_and_restores_it(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert len(saved) == N_SUBSTITUTIONS
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.restore()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert orchestrator.update is eprocess.update
    assert orchestrator.payoff is eprocess.payoff
    assert orchestrator.next_bet is betting.next_bet
    assert orchestrator.observe is betting.observe


@pytest.mark.parametrize("name", ["narrow", "wide"])
def test_workload_configs_parse(workloads, name):
    w = workloads.WORKLOADS[name](7)
    for doc in (w.mc_config, w.logged_config):
        cfg = runio.parse_config(doc).cfg
        assert cfg.error_metric.value == doc["error_metric"]
        assert cfg.acquisition.batch_size == doc["batch_size"]
