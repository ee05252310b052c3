"""The engine's fast paths give exactly what the plain definitions give.

- The step-up closure cuts at a sorted value, and the eps-greedy top-k at
  the k-th largest wealth; property tests compare them with
  ``sorted``-based references.
- Key prefixes are hashed once and continued with ``mix64_from``.
- The engine re-selects only when an input of the rule changed; every
  logged round's set is checked against the rule applied from scratch.
- Golden digests pin the bytes ``ecalib simulate`` writes for small fixed
  configs, so any drift in wealth bits, draws or selection fails here.
- The one-run engine's two layouts, per-id Python and arrays, give equal
  results, and each gives the golden bytes and what the trial-batched
  engine gives; the one-run source, folding a query's ids into keys as an
  array, draws what ``sample_risk`` draws one key at a time.
- The trial-batched engine (``run_block``, under ``run_trials``) gives row m
  exactly what ``run_altt`` gives trial m, in every round; its row-wise
  acquisition, selection and wealth update equal the one-run functions, at
  any length of the chunks of rounds whose keyed draws are hashed at once;
  ``run_trials`` is the same at any worker count and equals the scalar
  reference ``_one_trial`` accumulated in trial order; and golden digests
  pin ``ecalib validate`` output for the benchmark's Monte Carlo configs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import LAYOUTS, one_run_layout, recorded, recorded_block
from hypothesis import given, settings
from hypothesis import strategies as st

from ecalib.acquisition import round_draws, select_batch, select_rows
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
from ecalib.eprocess import bet_bound, update, updates
from ecalib.errors import BetOutOfBounds
from ecalib import orchestrator
from ecalib.orchestrator import ARRAY_BATCH, CHUNK_ROUNDS, run_altt, run_ltt
from ecalib.rng import (
    TAG_RISK,
    TAG_SHARED,
    MixStream,
    mix64,
    mix64_from,
    unit_uniform,
    unit_uniform_from,
)
from ecalib.selection import _bh_thresholds, _by_thresholds, _ebh_thresholds, bh, bonferroni, by, ebh, fixed_sequence
from ecalib.selection import select_rows as select_set_rows
from ecalib.simharness import (
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    PointMass,
    SyntheticSpec,
    TrialAccumulator,
    _one_trial,
    _trial_block,
    KEY_ROUNDS,
    derive_reliable,
    run_trials,
    sample_risk,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# -- sorted-based references -------------------------------------------------


def ref_step_up(ranked, values, thresholds, passes):
    k_star = 0
    for k in range(len(ranked)):
        if passes(values[ranked[k]], thresholds[k]):
            k_star = k + 1
    return frozenset(ranked[:k_star])


def ref_bh(p, delta):
    n = len(p)
    ranked = sorted(range(n), key=lambda i: (p[i], i))
    thresholds = tuple((k + 1) * delta / n for k in range(n))
    return ref_step_up(ranked, p, thresholds, lambda v, t: v <= t)


def ref_by(p, delta):
    n = len(p)
    h_n = sum(1.0 / k for k in range(1, n + 1))
    ranked = sorted(range(n), key=lambda i: (p[i], i))
    thresholds = tuple((k + 1) * delta / (n * h_n) for k in range(n))
    return ref_step_up(ranked, p, thresholds, lambda v, t: v <= t)


def ref_ebh(e, delta):
    n = len(e)
    ranked = sorted(range(n), key=lambda i: (-e[i], i))
    thresholds = tuple(n / ((k + 1) * delta) for k in range(n))
    return ref_step_up(ranked, e, thresholds, lambda v, t: v >= t)


def ref_bonferroni(p, delta):
    return frozenset(i for i, v in enumerate(p) if v <= delta / len(p))


def ref_fixed_sequence(p, order, delta):
    return frozenset(itertools.takewhile(lambda i: p[i] <= delta, order))


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
    @given(p=p_values, delta=deltas)
    def test_bh(self, p, delta):
        assert bh(p, delta).selected == ref_bh(p, delta)

    @settings(max_examples=300, deadline=None)
    @given(p=p_values, delta=deltas)
    def test_by(self, p, delta):
        assert by(p, delta).selected == ref_by(p, delta)

    @settings(max_examples=300, deadline=None)
    @given(e=e_values, delta=deltas)
    def test_ebh(self, e, delta):
        assert ebh(e, delta).selected == ref_ebh(e, delta)

    @settings(max_examples=300, deadline=None)
    @given(w=log_wealths, data=st.data())
    def test_eps_greedy_top_k(self, w, data):
        n = len(w)
        certified = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        batch = data.draw(st.integers(1, n))
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.0, batch_size=batch)
        got = select_batch(spec, w, certified, MixStream(1, 2), 1)
        assert got == ref_top_k(w, certified, min(batch, n - len(certified)))



class TestPrefixFold:
    parts = st.lists(st.integers(-(2**70), 2**70), max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(a=parts, b=parts)
    def test_fold_continues_the_prefix_hash(self, a, b):
        assert mix64_from(mix64(*a), *b) == mix64(*a, *b)
        assert unit_uniform_from(mix64(*a), *b) == unit_uniform(*a, *b)
        full, cont = MixStream(*a, *b), MixStream.from_prefix(mix64(*a), *b)
        assert [full.next_u64() for _ in range(3)] == [cont.next_u64() for _ in range(3)]


# Query sizes from one id to wide's batch of 50.
SOURCE_SIZES = [1, 3, 11, 12, 50]
ARMS4 = (Bernoulli(0.3), Beta(2.0, 3.0), PointMass(0.25), Beta(0.5, 0.5))


def _query_ids(size, t):
    """``size`` ascending ids of 60, a different set in each round."""
    return sorted(np.random.default_rng(t).choice(60, size, replace=False).tolist())


def _sample_at(arm, u):
    """``arm``'s family ``sample`` at one uniform ``u``."""
    return float(arm.sample(u, *dataclasses.astuple(arm)))


class TestSourcesDrawTheDocumentedKeys:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("threshold", [None, 0.4])
    @pytest.mark.parametrize("size", SOURCE_SIZES)
    def test_synthetic_source_equals_sample_risk(self, monkeypatch, shared, threshold, size):
        # Chunks of 3 rounds, and rounds that go back and repeat, make the
        # source hash its keys again.
        monkeypatch.setattr("ecalib.simharness.KEY_ROUNDS", 3)
        spec = SyntheticSpec(ARMS4 * 15, shared_draw=shared, quantile_threshold=threshold)
        source = spec.make_source(17, 3)
        for t in (50, 1, 2, 50):
            ids = _query_ids(size, t)
            assert source.query(t, ids, "") == [sample_risk(spec, i, t, 17, 3) for i in ids]

    @pytest.mark.parametrize("size", SOURCE_SIZES)
    def test_two_metric_source_equals_the_keyed_draws(self, size):
        # Metric k of id i on the stream keyed by (seed, trial, t, i, k):
        # sample_risk's key with k in place of its 0.
        m0 = SyntheticSpec(ARMS4 * 15)
        m1 = SyntheticSpec(ARMS4[::-1] * 15, quantile_threshold=0.4)
        source = CompositeSyntheticSpec((m0, m1)).make_source(17, 3)
        for t in (1, 2, 50):
            ids = _query_ids(size, t)
            want = [
                tuple(float(m.draw(np.array([i]), np.array([unit_uniform(TAG_RISK, 17, 3, t, i, k)]))[0])
                      for k, m in enumerate((m0, m1)))
                for i in ids
            ]
            assert source.query(t, ids, "") == want
            assert [r[0] for r in want] == [sample_risk(m0, i, t, 17, 3) for i in ids]

    def test_one_array_draw_equals_the_scalar_draws(self):
        # One betaincinv call over a round's ids gives each id's scalar draw.
        rng = np.random.default_rng(5)
        arms = tuple(Beta(a, b) for a, b in rng.uniform(0.3, 9.0, size=(400, 2)).tolist())
        u = rng.random(400)
        got = SyntheticSpec(arms).draw(np.arange(400), u)
        assert [x.hex() for x in got.tolist()] == [_sample_at(arm, x).hex() for arm, x in zip(arms, u.tolist())]

    def test_composite_source_keys(self):
        m0 = SyntheticSpec((Beta(2.0, 3.0), Bernoulli(0.4)))
        m1 = SyntheticSpec((Beta(1.0, 4.0), Bernoulli(0.6)), shared_draw=True)
        source = CompositeSyntheticSpec((m0, m1)).make_source(9, 2)
        for t in (1, 7):
            expected = [
                (
                    _sample_at(m0.arms[i], unit_uniform(TAG_RISK, 9, 2, t, i, 0)),
                    _sample_at(m1.arms[i], unit_uniform(TAG_SHARED, 9, 2, t, 1)),
                )
                for i in (0, 1)
            ]
            assert source.query(t, [0, 1], "") == expected

    @pytest.mark.parametrize("shared", [False, True])
    def test_one_metric_composite_draws_its_spec(self, shared):
        # K = 1 is K = 1 whichever spec kind states it: the source answers
        # floats, the block a (P, 1) array, and a run is the plain spec's run.
        spec = SyntheticSpec((Bernoulli(0.3), Beta(2.0, 3.0), PointMass(0.25)), shared_draw=shared)
        composite = CompositeSyntheticSpec((spec,))
        trials = [3, 4]
        rows, ids = np.array([0, 1, 1]), np.array([0, 1, 2])
        for t in (1, 4):
            assert composite.make_source(5, 1).query(t, [0, 2], "") == [sample_risk(spec, i, t, 5, 1) for i in (0, 2)]
            got = composite.make_block(5, trials).query(t, rows, ids)
            assert got.shape == (3, 1)
            want = [sample_risk(spec, i, t, 5, trials[r]) for r, i in zip(rows.tolist(), ids.tolist())]
            assert _hex(got[:, 0]) == _hex(want)
        cfg = small_config(SelectionRuleName.BH, 3, t_max=20)
        assert_same_run(recorded(run_altt, cfg, composite.make_source(5, 1), trial=1),
                        recorded(run_altt, cfg, spec.make_source(5, 1), trial=1))

    @pytest.mark.parametrize("shared", [False, True])
    def test_block_answers_any_sequence_of_queries(self, monkeypatch, shared):
        # The block hashes a chunk of rounds at a time; empty queries and
        # rounds that go back or skip ahead get each trial's keyed draws
        # all the same.
        monkeypatch.setattr("ecalib.simharness.KEY_ROUNDS", 3)
        spec = SyntheticSpec((Bernoulli(0.3), Beta(2.0, 3.0), PointMass(0.25)), shared_draw=shared)
        trials = [8, 2, 5, 11]
        block = spec.make_block(6, trials)
        queries = [(1, [1, 3]), (2, [0, 1, 3]), (3, []), (4, [3]), (5, [2, 3]), (2, [1]), (9, [0, 0]), (7, [2])]
        for t, rows in queries:
            ids = np.arange(len(rows)) % spec.n
            got = block.query(t, np.array(rows, dtype=np.intp), ids)
            want = [sample_risk(spec, i, t, 6, trials[r]) for r, i in zip(rows, ids.tolist())]
            assert _hex(got[:, 0]) == _hex(want)


def small_config(rule, n, **kw) -> CalibrationConfig:
    base = dict(
        n_candidates=n,
        alpha=0.3,
        delta=0.2,
        direction=Direction.RISK_BELOW,
        selection_rule=rule,
        acquisition=AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=0.3, batch_size=2),
        betting=BettingSpec(BettingStrategy.AGRAPA),
        t_max=300,
        d_stop=n,
        seed=4,
    )
    base.update(kw)
    return CalibrationConfig(**base)


SMALL_SPEC = SyntheticSpec(
    tuple(Bernoulli(p) for p in (0.05, 0.1, 0.15, 0.2, 0.28, 0.35, 0.5, 0.7))
)


@pytest.mark.parametrize("layout", LAYOUTS)
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
    def test_every_round_holds_the_rule_applied_from_scratch(self, layout, rule, metric):
        cfg = small_config(rule, SMALL_SPEC.n)
        assert cfg.error_metric is metric
        for trial in range(8):
            with one_run_layout(layout):
                result = recorded(run_altt, cfg, SMALL_SPEC.make_source(cfg.seed, trial), trial=trial)
            order = tuple(range(cfg.n_candidates))
            for rec in result.records:
                if rule is SelectionRuleName.BONFERRONI:
                    fresh = bonferroni(rec.anytime_p, cfg.delta)
                elif rule is SelectionRuleName.FIXED_SEQUENCE:
                    fresh = fixed_sequence(rec.anytime_p, order, cfg.delta)
                elif rule is SelectionRuleName.BH:
                    fresh = bh(rec.anytime_p, cfg.delta)
                elif rule is SelectionRuleName.BY:
                    fresh = by(rec.anytime_p, cfg.delta)
                else:
                    fresh = ebh(rec.wealth, cfg.delta)
                assert rec.selected == fresh.selected, (trial, rec.t)

    def test_token_free_sources_get_an_empty_token(self, layout):
        seen = []

        class Silent:
            reads_token = False

            def query(self, round_index, ids, token):
                seen.append(token)
                return [0.0] * len(ids)

        cfg = small_config(SelectionRuleName.BONFERRONI, 3, t_max=3, d_stop=3)
        with one_run_layout(layout):
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
    "bh_composite": (
        _doc(6, "fdr", "bh", 2, "agrapa", 250, 9, {
            "kind": "composite",
            "metrics": [
                {"kind": "synthetic", "arms": _bernoulli_arms([0.05, 0.1, 0.15, 0.3, 0.4, 0.5])},
                {"kind": "synthetic", "shared_draw": True,
                 "arms": _bernoulli_arms([0.1, 0.2, 0.1, 0.2, 0.5, 0.2])},
            ],
        }, extra_metrics=[{"alpha": 0.3, "direction": "risk_below"}]),
        "4cf18caa54a7ce262abb1487c39a5b6fb7199890e9d43e6883a13cd55defbf8b",
        "0191151259a3e68923b9d472f4efe14a07e9ce74de657ab7662e15d6666fd280",
    ),
    # The benchmark's wide shape: the exploit picks of a pool of 333 to 500
    # ids come from acquisition's partition cut, and round 1 ties every
    # wealth at 0.
    "ebh_wide_batch": (
        _doc(500, "fdr", "ebh", 50, "agrapa", 60, 21, {
            "kind": "synthetic",
            "arms": [{"dist": "beta", "a": 2.0, "b": 2.0 * (1.0 - m) / m}
                     for m in (0.02 + 0.58 * ((37 * i) % 500) / 500 for i in range(500))],
        }, alpha=0.5),
        "863496bba9a6335af3968e758590094e19e06a34c2a3d9cf79dfbd770c2b0e62",
        "c2210ccd052d2a3274e06478a7ed0e4be78d146c13a2d151ee02d1e53304b312",
    ),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_writes_the_golden_bytes(tmp_path, name, layout):
    doc, rounds_sha, final_sha = GOLDEN[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    with one_run_layout(layout):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == rounds_sha
    assert hashlib.sha256((out / "final.json").read_bytes()).hexdigest() == final_sha


# -- the trial-batched engine -------------------------------------------------


def _hex(values):
    return tuple(float(v).hex() for v in values)


def _risk_key(risks):
    return tuple(_hex(r) if isinstance(r, tuple) else float(r).hex() for r in risks)


def assert_same_run(got, want):
    """Equal outcomes and equal RoundRecords, floats compared by their bits."""
    assert (got.T, got.stop_reason, got.n_queries, got.selected) == (
        want.T, want.stop_reason, want.n_queries, want.selected)
    assert _hex(got.final_wealth) == _hex(want.final_wealth)
    assert _hex(got.final_anytime_p) == _hex(want.final_anytime_p)
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.t, a.tested, a.selected) == (b.t, b.tested, b.selected), a.t
        assert _risk_key(a.risks) == _risk_key(b.risks), a.t
        assert _hex(a.wealth) == _hex(b.wealth), a.t
        assert _hex(a.anytime_p) == _hex(b.anytime_p), a.t


arms = st.one_of(
    st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]).map(Bernoulli),
    st.builds(Beta, st.sampled_from([0.5, 2.0]), st.sampled_from([0.5, 3.0, 8.0])),
    st.sampled_from([0.0, 0.2, 0.6, 1.0]).map(PointMass),
)
levels = st.sampled_from([0.1, 0.3, 0.5, 0.8])


@st.composite
def engine_cases(draw, adaptive=True):
    """A config, a synthetic spec (plain, shared draw, quantile or a K=2
    composite) and a run of consecutive trial indices."""
    n = draw(st.integers(1, 6))
    spec_arms = st.lists(arms, min_size=n, max_size=n).map(tuple)
    kind = draw(st.sampled_from(["plain", "shared", "quantile", "composite"]))
    extra = ()
    if kind == "composite":
        second = SyntheticSpec(draw(spec_arms), shared_draw=draw(st.booleans()))
        spec = CompositeSyntheticSpec((SyntheticSpec(draw(spec_arms)), second))
        extra = (MetricSpec(draw(levels), draw(st.sampled_from(Direction))),)
    else:
        spec = SyntheticSpec(draw(spec_arms), shared_draw=kind == "shared",
                             quantile_threshold=0.4 if kind == "quantile" else None)
    policies = [p for p in AcquisitionPolicy if adaptive or p is not AcquisitionPolicy.EPS_GREEDY]
    rule = draw(st.sampled_from(SelectionRuleName))
    order = None
    if rule is SelectionRuleName.FIXED_SEQUENCE and draw(st.booleans()):
        order = tuple(draw(st.permutations(range(n))))
    cfg = CalibrationConfig(
        n_candidates=n,
        alpha=draw(levels),
        delta=draw(st.sampled_from([0.05, 0.2, 0.5, 0.9])),
        direction=draw(st.sampled_from(Direction)),
        selection_rule=rule,
        acquisition=AcquisitionSpec(draw(st.sampled_from(policies)),
                                    epsilon=draw(st.sampled_from([0.0, 0.3, 1.0])),
                                    batch_size=draw(st.integers(1, n))),
        betting=BettingSpec(draw(st.sampled_from(BettingStrategy))),
        t_max=draw(st.integers(1, 40)),
        d_stop=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 2**64 - 1)),
        fixed_sequence_order=order,
        extra_metrics=extra,
    )
    first = draw(st.integers(0, 10**6))
    return cfg, spec, list(range(first, first + draw(st.integers(1, 5))))


@contextlib.contextmanager
def chunk_rounds(sizes):
    """run_block and SyntheticBlock hash their keyed draws sizes[0] and
    sizes[1] rounds at a time inside this context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ecalib.orchestrator.CHUNK_ROUNDS", sizes[0])
        patch.setattr("ecalib.simharness.KEY_ROUNDS", sizes[1])
        yield


# The default chunks, then one round per chunk on one side and a chunk that
# horizons of up to 40 rounds span many times, and that rows stop in the
# middle of, on the other.
CHUNKS = [(CHUNK_ROUNDS, KEY_ROUNDS), (1, 3), (3, 1)]


def one_run(cfg, spec, trial, layout, horizon=None):
    """``run_altt`` of ``trial``, or ``run_ltt`` for ``horizon`` rounds, in
    the one-run engine's ``layout``, with its rounds recorded."""
    source = spec.make_source(cfg.seed, trial)
    with one_run_layout(layout):
        if horizon is None:
            return recorded(run_altt, cfg, source, trial=trial)
        return recorded(run_ltt, cfg, source, horizon, trial=trial)


# The chunks shape run_block and the layout the run_altt it is compared
# with: the default chunks meet both layouts, the others one each.
@pytest.mark.parametrize("chunk, layout", [(CHUNKS[0], "scalar"), (CHUNKS[0], "arrays"),
                                           (CHUNKS[1], "arrays"), (CHUNKS[2], "scalar")],
                         ids=["chunk0-scalar", "chunk0-arrays", "chunk1-arrays", "chunk2-scalar"])
class TestBatchedEngine:
    @settings(max_examples=150, deadline=None)
    @given(case=engine_cases())
    def test_row_m_is_run_altt_of_trial_m(self, chunk, layout, case):
        cfg, spec, trials = case
        with chunk_rounds(chunk):
            rows = recorded_block(cfg, spec.make_block(cfg.seed, trials), trials, cfg.t_max, True)
        for trial, got in zip(trials, rows):
            assert_same_run(got, one_run(cfg, spec, trial, layout))

    @settings(max_examples=150, deadline=None)
    @given(case=engine_cases(adaptive=False), data=st.data())
    def test_row_m_is_run_ltt_of_trial_m(self, chunk, layout, case, data):
        cfg, spec, trials = case
        horizon = data.draw(st.integers(0, cfg.t_max))
        with chunk_rounds(chunk):
            rows = recorded_block(cfg, spec.make_block(cfg.seed, trials), trials, horizon, False)
        for trial, got in zip(trials, rows):
            assert_same_run(got, one_run(cfg, spec, trial, layout, horizon))

    def test_every_rule_policy_strategy_and_direction(self, chunk, layout):
        # The grid the property test samples, covered exhaustively on a
        # small instance; the source kind cycles through all four.
        arms4 = (Bernoulli(0.05), Beta(2.0, 8.0), PointMass(0.2), Bernoulli(0.6))
        kinds = [
            SyntheticSpec(arms4),
            SyntheticSpec(arms4, shared_draw=True),
            SyntheticSpec(arms4, quantile_threshold=0.3),
            CompositeSyntheticSpec((SyntheticSpec(arms4), SyntheticSpec(arms4[::-1], shared_draw=True))),
        ]
        grid = itertools.product(SelectionRuleName, AcquisitionPolicy, BettingStrategy, Direction)
        trials = [0, 1, 2]
        for j, (rule, policy, strategy, direction) in enumerate(grid):
            spec = kinds[j % 4]
            cfg = small_config(
                rule, 4, t_max=12, d_stop=2, direction=direction, delta=0.5,
                acquisition=AcquisitionSpec(policy, epsilon=0.3, batch_size=2),
                betting=BettingSpec(strategy),
                extra_metrics=(MetricSpec(0.4, direction),) if j % 4 == 3 else (),
            )
            with chunk_rounds(chunk):
                rows = recorded_block(cfg, spec.make_block(cfg.seed, trials), trials, cfg.t_max, True)
            for trial, got in zip(trials, rows):
                assert_same_run(got, one_run(cfg, spec, trial, layout))

    def test_rows_stop_at_their_own_rounds(self, chunk, layout):
        cfg = small_config(SelectionRuleName.BH, SMALL_SPEC.n, d_stop=3)
        trials = list(range(12))
        with chunk_rounds(chunk):
            rows = recorded_block(cfg, SMALL_SPEC.make_block(cfg.seed, trials), trials, cfg.t_max, True)
        assert len({row.T for row in rows if row.T < cfg.t_max}) > 3
        for trial, got in zip(trials, rows):
            assert_same_run(got, one_run(cfg, SMALL_SPEC, trial, layout))

    @pytest.mark.parametrize("policy, batch", [
        (AcquisitionPolicy.UNIFORM_ALL, 3),  # Fisher-Yates over every id
        (AcquisitionPolicy.EPS_GREEDY, 3),  # Fisher-Yates over the pool, top-k
        (AcquisitionPolicy.EPS_GREEDY, 1),  # the batch-1 rank, the first maximum
    ])
    def test_each_acquisition_path_across_chunk_edges(self, chunk, layout, policy, batch):
        cfg = small_config(SelectionRuleName.BH, SMALL_SPEC.n, d_stop=3, t_max=150,
                           acquisition=AcquisitionSpec(policy, epsilon=0.5, batch_size=batch))
        trials = list(range(10))
        with chunk_rounds(chunk):
            rows = recorded_block(cfg, SMALL_SPEC.make_block(cfg.seed, trials), trials, cfg.t_max, True)
        # Rows stop at different rounds, some in the middle of a chunk of 3.
        stops = {row.T for row in rows if row.T < cfg.t_max}
        assert len(stops) > 2 and any(T % 3 for T in stops)
        for trial, got in zip(trials, rows):
            assert_same_run(got, one_run(cfg, SMALL_SPEC, trial, layout))


class TestOneRunLayouts:
    """``_run`` gives the same RunResult in either layout: records, final
    wealths and p-values, T, stop reason and query count."""

    @settings(max_examples=200, deadline=None)
    @given(case=engine_cases(), data=st.data())
    def test_the_layouts_give_the_same_run(self, case, data):
        cfg, spec, trials = case
        horizon = None
        if cfg.acquisition.policy is not AcquisitionPolicy.EPS_GREEDY and data.draw(st.booleans()):
            horizon = data.draw(st.integers(0, cfg.t_max))
        assert_same_run(one_run(cfg, spec, trials[0], "arrays", horizon),
                        one_run(cfg, spec, trials[0], "scalar", horizon))

    def test_every_rule_policy_strategy_and_direction(self):
        # K = 1 and K = 2 alternate; eps-greedy pools shrink below the batch
        # of 4 once three of the six ids are certified, in 10 of the cells.
        arms6 = (Bernoulli(0.02), Beta(2.0, 30.0), PointMass(0.05), Bernoulli(0.1), Beta(2.0, 2.0), Bernoulli(0.6))
        kinds = [
            SyntheticSpec(arms6),
            SyntheticSpec(arms6, shared_draw=True),
            SyntheticSpec(arms6, quantile_threshold=0.3),
            CompositeSyntheticSpec((SyntheticSpec(arms6), SyntheticSpec(arms6[::-1], shared_draw=True))),
        ]
        grid = itertools.product(SelectionRuleName, AcquisitionPolicy, BettingStrategy, Direction)
        shrunk = 0
        for j, (rule, policy, strategy, direction) in enumerate(grid):
            cfg = small_config(
                rule, 6, t_max=30, d_stop=5, direction=direction, delta=0.5,
                acquisition=AcquisitionSpec(policy, epsilon=0.3, batch_size=4),
                betting=BettingSpec(strategy),
                extra_metrics=(MetricSpec(0.4, direction),) if j % 4 == 3 else (),
            )
            got = one_run(cfg, kinds[j % 4], j, "arrays")
            assert_same_run(got, one_run(cfg, kinds[j % 4], j, "scalar"))
            shrunk += any(len(rec.tested) < 4 for rec in got.records)
        assert shrunk >= 10

    def test_full_batch_with_batch_size_one(self):
        cfg = small_config(SelectionRuleName.BH, 8, t_max=60, d_stop=8,
                           acquisition=AcquisitionSpec(AcquisitionPolicy.FULL_BATCH, batch_size=1))
        got = one_run(cfg, SMALL_SPEC, 3, "arrays")
        assert_same_run(got, one_run(cfg, SMALL_SPEC, 3, "scalar"))
        assert {rec.tested for rec in got.records} == {tuple(range(8))}

    @pytest.mark.parametrize("policy, batch_size, n, arrays", [
        (AcquisitionPolicy.FULL_BATCH, 1, ARRAY_BATCH, True),  # N ids a round, whatever batch_size says
        (AcquisitionPolicy.FULL_BATCH, 1, ARRAY_BATCH - 1, False),
        (AcquisitionPolicy.EPS_GREEDY, ARRAY_BATCH, ARRAY_BATCH + 5, True),
        (AcquisitionPolicy.EPS_GREEDY, ARRAY_BATCH - 1, 100, False),
        (AcquisitionPolicy.UNIFORM_ALL, ARRAY_BATCH, ARRAY_BATCH, True),
        (AcquisitionPolicy.ROUND_ROBIN, ARRAY_BATCH - 1, 100, False),
    ])
    def test_the_batch_the_policy_implies_picks_the_layout(self, monkeypatch, policy, batch_size, n, arrays):
        calls = []
        advance = orchestrator._advance
        monkeypatch.setattr(orchestrator, "_advance", lambda *args: calls.append(1) or advance(*args))
        cfg = small_config(SelectionRuleName.BH, n, t_max=3,
                           acquisition=AcquisitionSpec(policy, epsilon=0.3, batch_size=batch_size))
        run_altt(cfg, SyntheticSpec((Bernoulli(0.2),) * n).make_source(cfg.seed, 0))
        assert calls == ([1] * 3 if arrays else [])


wealth_rows = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([float("-inf"), -1.0, 0.0, 0.5, 3.0, float("inf")]) | st.floats(-5, 5),
             min_size=n, max_size=n), min_size=1, max_size=5))


value_atoms = [0.0, 0.01, 0.05, 0.5, 1.0, 3.0, float("inf")]
value_rows = st.one_of(st.integers(20, 60), st.integers(1, 20)).flatmap(lambda n: st.lists(
    st.one_of(st.lists(st.sampled_from(value_atoms), min_size=n, max_size=n),
              st.lists(st.sampled_from(value_atoms) | st.floats(0.0, 5.0), min_size=n, max_size=n)),
    min_size=1, max_size=4))


def ids_per_row(pairs, r: int) -> list[tuple[int, ...]]:
    """Each of r rows' tested ids, from ``select_rows``' (row, id) pairs,
    which must come ordered by row and then by id, each pair once."""
    got = list(zip(*(a.tolist() for a in pairs)))
    assert got == sorted(set(got))
    return [tuple(i for row, i in got if row == j) for j in range(r)]


class TestRowWiseLayers:
    @settings(max_examples=250, deadline=None)
    @given(w=wealth_rows, data=st.data())
    def test_select_rows_is_select_batch_per_row(self, w, data):
        # Uncertified ids bankrupt at -inf must stay in the pool, and the
        # last row certifies every id: under eps-greedy its pool is empty.
        n = len(w[0])
        w = [*w, [1.0] * n]
        wealths = np.array(w)
        r = len(w)
        certified = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                                min_size=r - 1, max_size=r - 1)) + [[True] * n])
        spec = AcquisitionSpec(data.draw(st.sampled_from(AcquisitionPolicy)),
                               epsilon=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                               batch_size=data.draw(st.integers(1, n)))
        t = data.draw(st.integers(1, 50))
        prefixes = [mix64(TAG_RISK, j, 3) for j in range(r)]
        got = select_rows(spec, wealths, certified, round_draws(spec, n, np.array(prefixes, dtype=np.uint64), t), t)
        per_row = ids_per_row(got, r)
        for j in range(r):
            cert = frozenset(np.flatnonzero(certified[j]).tolist())
            want = select_batch(spec, w[j], cert, MixStream.from_prefix(prefixes[j], t), t)
            assert per_row[j] == want
        if spec.policy is AcquisitionPolicy.EPS_GREEDY:
            assert r - 1 not in got[0].tolist()

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_batch_one_pick_of_a_pool_all_at_minus_inf(self, epsilon):
        # The top of a pool whose wealths are all -inf ties with the -inf that
        # fills certified slots; the pick is still the first pool id.  The
        # last row's pool is empty: it tests nothing, exploring or not, and
        # is in no pair.
        inf = float("inf")
        wealths = [[5.0, -inf, -inf, -inf], [-inf] * 4, [0.0, 1.0, 1.0, 0.5], [1.0] * 4]
        certified = np.array([[True, False, True, False], [False] * 4, [False, True, False, False], [True] * 4])
        spec = AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=epsilon, batch_size=1)
        prefixes = np.array([mix64(TAG_RISK, j, 3) for j in range(4)], dtype=np.uint64)
        got = select_rows(spec, np.array(wealths), certified, round_draws(spec, 4, prefixes, 1), 1)
        per_row = ids_per_row(got, 4)
        assert got[0].tolist() == [0, 1, 2]
        if not epsilon:
            assert per_row == [(1,), (0,), (2,), ()]
        for j in range(4):
            cert = frozenset(np.flatnonzero(certified[j]).tolist())
            assert select_batch(spec, wealths[j], cert, MixStream.from_prefix(int(prefixes[j]), 1), 1) == per_row[j]

    @settings(max_examples=200, deadline=None)
    @given(v=value_rows, data=st.data())
    def test_select_set_rows_is_the_reference_rule_per_row(self, v, data):
        # Rows long enough to reach numpy's partitioning sorts, with ties.
        n = len(v[0])
        delta = data.draw(deltas)
        pv = np.minimum(np.array(v) / 5.0, 1.0)
        ev = np.array(v) * 10.0
        order = tuple(data.draw(st.permutations(range(n))))
        for rule, values, ref in (
            (SelectionRuleName.BONFERRONI, pv, lambda x: ref_bonferroni(x, delta)),
            (SelectionRuleName.FIXED_SEQUENCE, pv, lambda x: ref_fixed_sequence(x, order, delta)),
            (SelectionRuleName.BH, pv, lambda x: ref_bh(x, delta)),
            (SelectionRuleName.BY, pv, lambda x: ref_by(x, delta)),
            (SelectionRuleName.EBH, ev, lambda x: ref_ebh(x, delta)),
        ):
            got = select_set_rows(rule, values, delta, order)
            for j in range(len(values)):
                assert frozenset(np.flatnonzero(got[j]).tolist()) == ref(values[j].tolist())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300) | st.integers(200, 300), r=st.integers(1, 64) | st.integers(48, 64),
           over=st.integers(0, 20),
           density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_fisher_yates_at_realistic_shapes(self, n, r, over, density, seed):
        # Pools of a few hundred ids, batches up to and above the pool size,
        # and eps-greedy rows whose pool sizes differ, so rows stop their
        # partial shuffles at different steps.
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, n + 1)) + over
        certified = rng.random((r, n)) < density
        prefixes = [mix64(TAG_RISK, j, seed) for j in range(r)]
        t = int(rng.integers(1, 1000))
        for spec in (AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=batch),
                     AcquisitionSpec(AcquisitionPolicy.EPS_GREEDY, epsilon=1.0, batch_size=batch)):
            draws = round_draws(spec, n, np.array(prefixes, dtype=np.uint64), t)
            per_row = ids_per_row(select_rows(spec, np.zeros((r, n)), certified, draws, t), r)
            for j in range(r):
                cert = frozenset(np.flatnonzero(certified[j]).tolist())
                want = select_batch(spec, [0.0] * n, cert, MixStream.from_prefix(prefixes[j], t), t)
                assert per_row[j] == want

    @given(n=st.integers(1, 3000), delta=deltas)
    def test_step_up_thresholds_are_monotone_in_rank(self, n, delta):
        # The closure cuts at a sorted value; that is exact only if no tie
        # can straddle the last passing rank, which these orders guarantee.
        assert (np.diff(_bh_thresholds(n, delta)) >= 0).all()
        assert (np.diff(_by_thresholds(n, delta)) >= 0).all()
        assert (np.diff(_ebh_thresholds(n, delta)) <= 0).all()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 300) | st.integers(200, 300), r=st.integers(1, 32) | st.integers(24, 32),
           delta=deltas, seed=st.integers(0, 2**32 - 1))
    def test_step_up_rows_are_the_reference_rule_per_row(self, n, r, delta, seed):
        # Each row mixes general values with a few atoms: the rule's own
        # thresholds at random ranks (values equal to a threshold, in runs of
        # ties that can straddle a candidate cut rank), their neighbours, and
        # p = 0, e = 0 and e = inf.
        rng = np.random.default_rng(seed)
        thr = {"p": np.concatenate((_bh_thresholds(n, delta), _by_thresholds(n, delta))),
               "e": _ebh_thresholds(n, delta)}
        ends = {"p": [0.0, 1.0], "e": [0.0, float("inf")]}
        general = {"p": lambda size: rng.uniform(0.0, min(2 * delta, 1.0), size),
                   "e": lambda size: n / (rng.uniform(0.5, n + 1, size) * delta)}

        def block(kind):
            rows = []
            for _ in range(r):
                picks = rng.choice(thr[kind], int(rng.integers(1, 6)))
                atoms = np.concatenate((picks, np.nextafter(picks, 0.0), np.nextafter(picks, np.inf), ends[kind]))
                tied = rng.random(n) < rng.uniform(0.0, 1.0)
                rows.append(np.where(tied, rng.choice(atoms, n), general[kind](n)))
            return np.minimum(np.array(rows), 1.0) if kind == "p" else np.array(rows)

        pv, ev = block("p"), block("e")
        for rule, values, ref in ((SelectionRuleName.BH, pv, ref_bh), (SelectionRuleName.BY, pv, ref_by),
                                  (SelectionRuleName.EBH, ev, ref_ebh)):
            got = select_set_rows(rule, values, delta)
            for j in range(r):
                assert frozenset(np.flatnonzero(got[j]).tolist()) == ref(values[j].tolist(), delta)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_updates_is_update_per_element(self, data):
        # g beyond the payoff range reaches the ruin branch x <= -1, and a
        # log wealth of -inf must stay there.
        bound = bet_bound(data.draw(levels), data.draw(st.sampled_from(Direction)))
        size = data.draw(st.integers(1, 20))
        lw = np.array(data.draw(st.lists(st.sampled_from([0.0, -math.inf, 2.5]) | st.floats(-50, 50),
                                         min_size=size, max_size=size)))
        g = np.array(data.draw(st.lists(st.floats(-3.0, 1.0), min_size=size, max_size=size)))
        mu = np.array(data.draw(st.lists(st.floats(0.0, bound.mu_max, exclude_max=True),
                                         min_size=size, max_size=size)))
        got = updates(lw, g, mu, bound)
        assert _hex(got) == _hex(update(a, b, c, bound) for a, b, c in zip(lw.tolist(), g.tolist(), mu.tolist()))
        with pytest.raises(BetOutOfBounds):
            updates(lw, g, np.where(np.arange(size) == size - 1, bound.mu_max, mu), bound)


def reference_summary(cfg, spec, M, base_seed):
    """run_trials' summary from the scalar engine, added in trial order."""
    reliable = derive_reliable(cfg, spec)
    acc = TrialAccumulator(reliable, cfg.t_max)
    for trial in range(M):
        _, result, rel_hits, sizes = _one_trial((cfg, spec, base_seed, trial, reliable))
        acc.add(result, rel_hits, sizes)
    return acc.summary()


class TestRunTrials:
    # M=7 splits unevenly at 2 and 3 workers; 9 workers exceed the trials.
    def test_equal_to_the_scalar_reference_at_any_worker_count(self, monkeypatch):
        cfg = small_config(SelectionRuleName.EBH, SMALL_SPEC.n, d_stop=5, t_max=150, delta=0.9)
        want = reference_summary(cfg, SMALL_SPEC, 7, 5)
        assert 0.0 < want.fdr_hat_unconditional
        assert set(want.stop_reason_counts) == {"reached_d", "reached_t_max"}
        for workers in (1, 2, 3, 9):
            assert run_trials(cfg, SMALL_SPEC, M=7, base_seed=5, workers=workers) == want
        monkeypatch.setattr("ecalib.simharness.BLOCK_TRIALS", 2)
        assert run_trials(cfg, SMALL_SPEC, M=7, base_seed=5) == want
        # Chunks of rounds that the 150-round horizon spans many times, and
        # that rows stopping at d_stop leave in the middle.
        for chunks in CHUNKS[1:]:
            with chunk_rounds(chunks):
                assert run_trials(cfg, SMALL_SPEC, M=7, base_seed=5) == want

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_block_curves_are_the_scalar_curves_row_by_row(self, chunk):
        # Uniform acquisition keeps testing certified ids, so an e-value can
        # fall and e-BH's set shrink, then grow again; rows stop at d_stop in
        # different rounds.  Each set change writes its counts through to
        # t_max, so from a row's stop on they hold its final set, as
        # _one_trial pads them.
        cfg = small_config(SelectionRuleName.EBH, SMALL_SPEC.n, d_stop=3, t_max=120, delta=0.5,
                           acquisition=AcquisitionSpec(AcquisitionPolicy.UNIFORM_ALL, batch_size=3))
        reliable = derive_reliable(cfg, SMALL_SPEC)
        with chunk_rounds(chunk):
            results, curves = _trial_block((cfg, SMALL_SPEC, 5, 0, 8, reliable))
        assert curves.shape == (2, 8, cfg.t_max)
        regrown, stops = 0, set()
        for trial, result in enumerate(results):
            _, want, rel_hits, sizes = _one_trial((cfg, SMALL_SPEC, 5, trial, reliable))
            assert (result.T, result.selected) == (want.T, want.selected)
            assert curves[:, trial].tolist() == [rel_hits.tolist(), sizes.tolist()]
            final = [[len(want.selected & reliable)], [len(want.selected)]]
            assert (curves[:, trial, want.T:] == np.array(final)).all()
            steps = np.diff(sizes[: want.T].astype(int))
            regrown += bool((steps < 0).any() and (steps[np.argmax(steps < 0):] > 0).any())
            stops.add(want.T)
        assert regrown >= 2
        assert len(stops - {cfg.t_max}) >= 3 and cfg.t_max in stops

    def test_fdp_sums_follow_trial_order(self):
        # The fractional FDPs of this instance sum to different bits in
        # numpy 2's pairwise order; run_trials adds them one trial at a time.
        cfg = small_config(SelectionRuleName.BH, SMALL_SPEC.n, d_stop=5, t_max=150, delta=0.5)
        got = run_trials(cfg, SMALL_SPEC, M=40, base_seed=3)
        fdps = []
        unreliable = frozenset(range(SMALL_SPEC.n)) - derive_reliable(cfg, SMALL_SPEC)
        reliable = derive_reliable(cfg, SMALL_SPEC)
        for trial in range(40):
            result = _one_trial((cfg, SMALL_SPEC, 3, trial, reliable))[1]
            if result.selected:
                fdps.append(len(result.selected & unreliable) / len(result.selected))
        in_order = 0.0
        for x in fdps:
            in_order += x
        assert sum(x > 0.0 for x in fdps) > 1
        assert got.fdr_hat_unconditional == in_order / 40
        assert got == reference_summary(cfg, SMALL_SPEC, 40, 3)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    yield workloads
    sys.modules.pop("workloads", None)


# sha256 of final.json and summary.csv from ``ecalib validate`` on each
# benchmark workload's Monte Carlo config, computed with the one-run engine.
VALIDATE_GOLDEN = {
    ("narrow", 7): ("b32ab7b4d2f0c0c649a98b27eb77eb530bedbd01b1af38072d35f1ba17bae545",
                    "fc9d4e8832347324dc92ea822b1a234dcf9877bea7cfeeda2cf019277b15e72b"),
    ("narrow", 8): ("c5e7c8361f4ae4e056a756614a28e9b9dc7b02f7d59df8b1955cde8c004825b3",
                    "e0fbcb34dfa009b507d72fcaf817da0eee72e678acae9106ade077c7132750a7"),
    ("wide", 7): ("92d27f9ee6fe92c421b2191f17a93d5acd3638cef248d9e4b368a529392a6ef8",
                  "5b66339f0a3cfd5a2a326bdcc17b2d0aacc0cfaec8635604aab69855d485fa6e"),
    ("wide", 8): ("940b46c3e98d9e1f85e0941d5ca37b84212bb5347d0efe02122c731b0f6d41b5",
                  "909033417c6a04de3fd158d2a52fe9e6c069b8b5fa837831f1d3023e2064b1f0"),
}
VALIDATE_TRIALS = {"narrow": 12, "wide": 3}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,seed", sorted(VALIDATE_GOLDEN))
def test_validate_writes_the_golden_bytes(tmp_path, workloads, name, seed, workers):
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(workloads.WORKLOADS[name](seed).mc_config), encoding="utf-8")
    out = tmp_path / "val"
    argv = ["validate", "--config", str(cfg_path), "--trials", str(VALIDATE_TRIALS[name]),
            "--out", str(out), "--workers", str(workers)]
    assert main(argv) == 0
    final_sha, summary_sha = VALIDATE_GOLDEN[name, seed]
    assert hashlib.sha256((out / "final.json").read_bytes()).hexdigest() == final_sha
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == summary_sha
