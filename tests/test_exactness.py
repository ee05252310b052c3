"""The engine's fast paths give exactly what the plain definitions give.

- The step-up rules and the eps-greedy top-k rank with a stable numpy
  argsort; property tests compare them with ``sorted``-based references.
- Key prefixes are hashed once and continued with ``mix64_from``.
- The engine re-selects only when an input of the rule changed; every
  logged round's set is checked against the rule applied from scratch.
- Golden digests pin the bytes ``ecalib simulate`` writes for small fixed
  configs, so any drift in wealth bits, draws or selection fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecalib.acquisition import select_batch
from ecalib.cli import main
from ecalib.core import (
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    ErrorMetric,
    SelectionRuleName,
)
from ecalib.orchestrator import run_altt
from ecalib.rng import (
    TAG_RISK,
    TAG_SHARED,
    MixStream,
    mix64,
    mix64_from,
    unit_uniform,
    unit_uniform_from,
)
from ecalib.selection import SelectionResult, bh, bonferroni, by, ebh, fixed_sequence
from ecalib.simharness import (
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    PointMass,
    SyntheticSpec,
    sample_risk,
)

# -- sorted-based references -------------------------------------------------


def ref_step_up(ranked, values, thresholds, passes, literal):
    if literal:
        return frozenset(
            ranked[k] for k in range(len(ranked)) if passes(values[ranked[k]], thresholds[k])
        )
    k_star = 0
    for k in range(len(ranked)):
        if passes(values[ranked[k]], thresholds[k]):
            k_star = k + 1
    return frozenset(ranked[:k_star])


def ref_bh(p, delta, literal):
    n = len(p)
    ranked = sorted(range(n), key=lambda i: (p[i], i))
    thresholds = tuple((k + 1) * delta / n for k in range(n))
    sel = ref_step_up(ranked, p, thresholds, lambda v, t: v <= t, literal)
    return SelectionResult(sel, "bh", thresholds)


def ref_by(p, delta, literal):
    n = len(p)
    h_n = sum(1.0 / k for k in range(1, n + 1))
    ranked = sorted(range(n), key=lambda i: (p[i], i))
    thresholds = tuple((k + 1) * delta / (n * h_n) for k in range(n))
    sel = ref_step_up(ranked, p, thresholds, lambda v, t: v <= t, literal)
    return SelectionResult(sel, "by", thresholds)


def ref_ebh(e, delta, literal):
    n = len(e)
    ranked = sorted(range(n), key=lambda i: (-e[i], i))
    thresholds = tuple(n / ((k + 1) * delta) for k in range(n))
    sel = ref_step_up(ranked, e, thresholds, lambda v, t: v >= t, literal)
    return SelectionResult(sel, "ebh", thresholds)


def ref_top_k(wealths, certified, k):
    pool = [i for i in range(len(wealths)) if i not in certified]
    ordered = sorted(pool, key=lambda i: (-wealths[i], i))
    return tuple(sorted(ordered[:k]))


# -- inputs: lists drawn from a few atoms make long runs of ties ------------


def tie_heavy_lists(atoms, general):
    # numpy sorts short arrays by insertion, which is stable anyway; the
    # tied lists are long enough to reach the partitioning sorts.
    tied = st.lists(st.sampled_from(atoms), min_size=20, max_size=80)
    mixed = st.lists(st.one_of(st.sampled_from(atoms), general), min_size=1, max_size=80)
    return st.one_of(tied, mixed)


p_values = tie_heavy_lists([0.0, -0.0, 5e-324, 1e-3, 5e-3, 0.01, 0.05, 1.0], st.floats(0.0, 1.0))
e_values = tie_heavy_lists([0.0, 1.0, 10.0, 20.0, 50.0, 1e300, float("inf")], st.floats(0.0, 1e6))
log_wealths = tie_heavy_lists([float("-inf"), -1.0, 0.0, 0.5, 3.0, float("inf")], st.floats(allow_nan=False))
deltas = st.one_of(st.sampled_from([0.05, 0.1, 0.3]), st.floats(0.001, 0.999))


class TestRankingMatchesSortedReference:
    @settings(max_examples=300, deadline=None)
    @given(p=p_values, delta=deltas, literal=st.booleans())
    def test_bh(self, p, delta, literal):
        assert bh(p, delta, literal) == ref_bh(p, delta, literal)

    @settings(max_examples=300, deadline=None)
    @given(p=p_values, delta=deltas, literal=st.booleans())
    def test_by(self, p, delta, literal):
        assert by(p, delta, literal) == ref_by(p, delta, literal)

    @settings(max_examples=300, deadline=None)
    @given(e=e_values, delta=deltas, literal=st.booleans())
    def test_ebh(self, e, delta, literal):
        assert ebh(e, delta, literal) == ref_ebh(e, delta, literal)

    @settings(max_examples=300, deadline=None)
    @given(w=log_wealths, data=st.data())
    def test_eps_greedy_top_k(self, w, data):
        n = len(w)
        certified = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        batch = data.draw(st.integers(1, n))
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.0, batch_size=batch)
        got = select_batch(spec, w, certified, MixStream(1, 2), 1)
        assert got == ref_top_k(w, certified, min(batch, n - len(certified)))


    def test_literal_split_of_a_tie_follows_id_order(self):
        # The 20 tied e-values of 50 hold ranks 1-20 and pass from rank 3 on,
        # so the two lowest ids among them (1 and 3) are left out.
        assert ebh([10.0, 50.0] * 20, 0.3, literal=True).selected == frozenset(range(40)) - {1, 3}
        # The 20 tied p-values of 0.06 hold ranks 21-40 and pass from rank 24.
        assert bh([0.06, 0.001] * 20, 0.1, literal=True).selected == frozenset(range(40)) - {0, 2, 4}


class TestPrefixFold:
    parts = st.lists(st.integers(-(2**70), 2**70), max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(a=parts, b=parts)
    def test_fold_continues_the_prefix_hash(self, a, b):
        assert mix64_from(mix64(*a), *b) == mix64(*a, *b)
        assert unit_uniform_from(mix64(*a), *b) == unit_uniform(*a, *b)
        full, cont = MixStream(*a, *b), MixStream.from_prefix(mix64(*a), *b)
        assert [full.next_u64() for _ in range(3)] == [cont.next_u64() for _ in range(3)]


class TestSourcesDrawTheDocumentedKeys:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("threshold", [None, 0.4])
    def test_synthetic_source_equals_sample_risk(self, shared, threshold):
        spec = SyntheticSpec(
            (Bernoulli(0.3), Beta(2.0, 3.0), PointMass(0.25), Beta(0.5, 0.5)),
            shared_draw=shared,
            quantile_threshold=threshold,
        )
        source = spec.make_source(17, 3)
        for t in (1, 2, 50):
            ids = [0, 1, 3] if t % 2 else [1, 2]
            assert source.query(t, ids, "") == [sample_risk(spec, i, t, 17, 3) for i in ids]

    def test_composite_source_keys(self):
        m0 = SyntheticSpec((Beta(2.0, 3.0), Bernoulli(0.4)))
        m1 = SyntheticSpec((Beta(1.0, 4.0), Bernoulli(0.6)), shared_draw=True)
        source = CompositeSyntheticSpec((m0, m1)).make_source(9, 2)
        for t in (1, 7):
            expected = [
                (
                    m0.arms[i].draw(unit_uniform(TAG_RISK, 9, 2, t, i, 0)),
                    m1.arms[i].draw(unit_uniform(TAG_SHARED, 9, 2, t, 1)),
                )
                for i in (0, 1)
            ]
            assert source.query(t, [0, 1], "") == expected


def small_config(rule, metric, n, literal=False, **kw) -> CalibrationConfig:
    base = dict(
        n_candidates=n,
        alpha=0.3,
        delta=0.2,
        direction=Direction.RISK_BELOW,
        error_metric=metric,
        selection_rule=rule,
        acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=2),
        betting=BettingSpec(BettingStrategy.AGRAPA),
        t_max=300,
        d_stop=n,
        batch_size=2,
        seed=4,
        literal_set=literal,
    )
    base.update(kw)
    return CalibrationConfig(**base)


SMALL_SPEC = SyntheticSpec(
    tuple(Bernoulli(p) for p in (0.05, 0.1, 0.15, 0.2, 0.28, 0.35, 0.5, 0.7))
)


class TestEngine:
    @pytest.mark.parametrize(
        "rule,metric",
        [
            (SelectionRuleName.BONFERRONI, ErrorMetric.FWER),
            (SelectionRuleName.FIXED_SEQUENCE, ErrorMetric.FWER),
            (SelectionRuleName.BH, ErrorMetric.FDR),
            (SelectionRuleName.BY, ErrorMetric.FDR),
            (SelectionRuleName.EBH, ErrorMetric.FDR),
        ],
    )
    @pytest.mark.parametrize("literal", [False, True])
    def test_every_round_holds_the_rule_applied_from_scratch(self, rule, metric, literal):
        cfg = small_config(rule, metric, SMALL_SPEC.n, literal)
        for trial in range(8):
            result = run_altt(cfg, SMALL_SPEC.make_source(cfg.seed, trial), trial=trial)
            order = tuple(range(cfg.n_candidates))
            for rec in result.records:
                if rule is SelectionRuleName.BONFERRONI:
                    fresh = bonferroni(rec.anytime_p, cfg.delta)
                elif rule is SelectionRuleName.FIXED_SEQUENCE:
                    fresh = fixed_sequence(rec.anytime_p, order, cfg.delta)
                elif rule is SelectionRuleName.BH:
                    fresh = bh(rec.anytime_p, cfg.delta, literal)
                elif rule is SelectionRuleName.BY:
                    fresh = by(rec.anytime_p, cfg.delta, literal)
                else:
                    fresh = ebh(rec.wealth, cfg.delta, literal)
                assert rec.selected == fresh.selected, (trial, rec.t)

    def test_token_free_sources_get_an_empty_token(self):
        seen = []

        class Silent:
            reads_token = False

            def query(self, round_index, ids, token):
                seen.append(token)
                return [0.0] * len(ids)

        cfg = small_config(SelectionRuleName.BONFERRONI, ErrorMetric.FWER, 3, t_max=3, d_stop=3)
        run_altt(cfg, Silent())
        assert seen == ["", "", ""]


# -- golden run directories -------------------------------------------------


def _bernoulli_arms(ps):
    return [{"dist": "bernoulli", "p": p} for p in ps]


def _doc(n, metric, rule, batch, strategy, t_max, seed, source, **extra) -> dict:
    doc = {
        "n_candidates": n,
        "alpha": 0.2,
        "delta": 0.1,
        "direction": "risk_below",
        "error_metric": metric,
        "selection_rule": rule,
        "acquisition": {"policy": "eps_greedy", "epsilon": 0.25, "batch_size": batch},
        "betting": {"strategy": strategy},
        "t_max": t_max,
        "d_stop": n,
        "batch_size": batch,
        "seed": seed,
        "source": source,
    }
    doc.update(extra)
    return doc


GOLDEN = {
    "bonferroni": (
        _doc(8, "fwer", "bonferroni", 1, "agrapa", 300, 7, {
            "kind": "synthetic",
            "arms": _bernoulli_arms([0.05, 0.08, 0.12, 0.18, 0.25, 0.3, 0.45, 0.6]),
        }),
        "c67cd0190bc50f431da4d574541fc5165cd725a11bbd37517d9613c8e6bb25b7",
        "038e05ac686f08984d0717518325c9ebf39d049e300088b5f2f3e8e1f4ce07b7",
    ),
    "ebh": (
        _doc(12, "fdr", "ebh", 3, "ons", 200, 8, {
            "kind": "synthetic",
            "arms": [{"dist": "beta", "a": 2.0, "b": 2.0 * (1.0 - m) / m}
                     for m in (0.05, 0.07, 0.1, 0.12, 0.15, 0.18, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6)],
        }),
        "64832bd9dfe1cb7e02c447100738e6ad0dda8b688e79e607b39a43c9b211ed04",
        "ccf21badb9b89315a3793a22866af58744ca6cf335ca3b74ed0302698de4ccdd",
    ),
    "bh_literal_composite": (
        _doc(6, "fdr", "bh", 2, "agrapa", 250, 9, {
            "kind": "composite",
            "metrics": [
                {"kind": "synthetic", "arms": _bernoulli_arms([0.05, 0.1, 0.15, 0.3, 0.4, 0.5])},
                {"kind": "synthetic", "shared_draw": True,
                 "arms": _bernoulli_arms([0.1, 0.2, 0.1, 0.2, 0.5, 0.2])},
            ],
        }, literal_set=True, extra_metrics=[{"alpha": 0.3, "direction": "risk_below"}]),
        "4cf18caa54a7ce262abb1487c39a5b6fb7199890e9d43e6883a13cd55defbf8b",
        "0191151259a3e68923b9d472f4efe14a07e9ce74de657ab7662e15d6666fd280",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_writes_the_golden_bytes(tmp_path, name):
    doc, rounds_sha, final_sha = GOLDEN[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == rounds_sha
    assert hashlib.sha256((out / "final.json").read_bytes()).hexdigest() == final_sha
