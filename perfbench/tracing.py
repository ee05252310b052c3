"""Spans around the package's layer boundaries, recorded from outside it.

The tracer wraps public functions by attribute substitution, at every place
a name is looked up when the engine runs: names bound by ``from ... import``
are wrapped in the importing module (``orchestrator.next_bet``,
``cli.run_trials``, ...), methods on their class.  Each call records a span
(name, start, end, parent, trial) in flat arrays held in memory; ``save``
writes them out when the run ends.  Layers are the module names, taken from
the span name's prefix.  A span's self time is its duration minus the time
covered by its direct children.

Tracing only observes: wrappers pass arguments and results through
unchanged, so a traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import dis
import json
import pickle
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from ecalib import acquisition, cli, oracle, orchestrator, rng, runio, selection, simharness

# Counters that must repeat exactly between two runs of the same seed.
EXACT = (
    "rng.mix64_calls_per_round",
    "rng.token_hashes_unread_per_round",
    "simharness.pool_result_bytes_per_trial",
    "acquisition.explore_ratio",
    "selection.set_change_ratio",
    "runio.rounds_csv_bytes_per_round",
)
LAYERS = ("rng", "simharness", "acquisition", "betting", "eprocess", "selection",
          "orchestrator", "oracle", "runio", "cli")
_SELECTION_RULES = ("bonferroni", "fixed_sequence", "bh", "by", "ebh")
_WRITERS = ("write_manifest", "write_rounds_csv", "write_summary_csv", "write_final_json")
_SOURCES = ("simharness.draw", "oracle.query", "runio.replay_source")


def _reads_token(fn) -> bool:
    """Whether a source's ``query`` ever loads its ``token`` argument."""
    return any(ins.argval == "token" and ins.opname.startswith("LOAD")
               for ins in dis.get_instructions(fn))


class Tracer:
    """Records spans while installed; ``restore`` undoes every substitution."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.failed = array("b")
        # Per-span integer payload: rounds of a run, ids of a source query,
        # pickled bytes of a trial result, 1 when a selection changed the set.
        self.value = array("q")
        self.unread_sources: set[str] = set()
        self._stack: list[int] = []
        self._trial = -1
        self._prev_selected = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self._trial)
        self.failed.append(0)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, failed: bool = False) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        if failed:
            self.failed[i] = 1

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield i
        except BaseException:
            self._close(i, failed=True)
            raise
        self._close(i)

    def wrap_callable(self, fn, name: str, post=None, pre=None):
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(i, failed=True)
                raise
            self._close(i)
            return result if post is None else post(i, args, result)

        return traced

    def wrap(self, owner, attr: str, name: str, post=None, pre=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap_callable(original, name, post, pre))

    # -- payload hooks -----------------------------------------------------

    def _start_run(self, args, kwargs) -> None:
        self._trial = kwargs.get("trial", 0)
        self._prev_selected = None

    def _end_run(self, i, args, result):
        self.value[i] = result.T
        return result

    def _count_ids(self, i, args, result):
        self.value[i] = len(args[2])
        return result

    def _selection_changed(self, i, args, result):
        if self._prev_selected is not None and result.selected != self._prev_selected:
            self.value[i] = 1
        self._prev_selected = result.selected
        return result

    def _trial_bytes(self, i, args, result):
        self.value[i] = len(pickle.dumps(result))
        return result

    def _traced_hook(self, i, args, hook):
        return self.wrap_callable(hook, "simharness.hook")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        w = self.wrap
        w(rng, "mix64", "rng.mix64")
        w(orchestrator, "mix64", "rng.token_mix64")
        w(simharness, "unit_uniform", "rng.unit_uniform")
        w(rng.MixStream, "sample_without_replacement", "rng.sample_without_replacement")
        for owner, name in ((simharness.SyntheticSource, "simharness.draw"),
                            (oracle.OracleClient, "oracle.query"),
                            (runio.ReplaySource, "runio.replay_source")):
            if not _reads_token(owner.query):
                self.unread_sources.add(name)
            w(owner, "query", name, post=self._count_ids)
        w(simharness, "_make_hook", "simharness.make_hook", post=self._traced_hook)
        w(simharness.TrialAccumulator, "add", "simharness.accumulate")
        w(simharness, "_one_trial", "simharness.trial", post=self._trial_bytes)
        w(cli, "run_trials", "simharness.run_trials")
        w(acquisition, "select_batch", "acquisition.select_batch")
        w(orchestrator, "next_bet", "betting.next_bet")
        w(orchestrator, "observe", "betting.observe")
        w(orchestrator, "payoff", "eprocess.payoff")
        w(orchestrator, "update", "eprocess.update")
        for rule in _SELECTION_RULES:
            w(selection, rule, f"selection.{rule}", post=self._selection_changed)
        for owner in (simharness, runio, orchestrator, cli):
            w(owner, "run_altt", "orchestrator.run_altt", post=self._end_run, pre=self._start_run)
        w(cli, "oracle_client", "oracle.handshake")
        for owner in (runio, cli):
            w(owner, "load_config", "runio.load_config")
            for writer in _WRITERS:
                if hasattr(owner, writer):
                    w(owner, writer, f"runio.{writer}")
        w(runio, "_parse_rounds_csv", "runio.parse_rounds")
        w(runio, "replay_check", "runio.replay_check")
        w(cli, "main", "cli.main")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path: Path) -> None:
        """Write every span as one structured array, names alongside."""
        spans = np.empty(len(self.start), dtype=[
            ("name", "u2"), ("start", "f8"), ("end", "f8"), ("parent", "i8"),
            ("trial", "i8"), ("failed", "i1"), ("value", "i8")])
        for field, arr in (("name", self.name_id), ("start", self.start), ("end", self.end),
                           ("parent", self.parent), ("trial", self.trial),
                           ("failed", self.failed), ("value", self.value)):
            spans[field] = np.frombuffer(arr, dtype=spans.dtype[field])
        np.save(path.with_suffix(".npy"), spans)
        path.with_suffix(".names.json").write_text(json.dumps(self.names), encoding="utf-8")


class SpanTable:
    """Column view of a tracer's spans, with self times and phases.

    Names are compared as integer ids; a span's phase is its root span.
    """

    def __init__(self, tr: Tracer):
        self.unread_sources = set(tr.unread_sources)
        self._ids = {n: i for i, n in enumerate(tr.names)}
        self.nid = np.frombuffer(tr.name_id, dtype=np.uint16).astype(np.int64)
        self.dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
        self.value = np.frombuffer(tr.value, dtype=np.int64)
        self.failed = np.frombuffer(tr.failed, dtype=np.int8)
        parent = np.frombuffer(tr.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(self.dur))
        self.self_time = self.dur - child_time
        self.parent_nid = np.where(has_parent, self.nid[np.maximum(parent, 0)], -1)
        root = np.arange(len(parent))
        while (up := parent[root]).max() >= 0:
            moving = up >= 0
            root[moving] = up[moving]
        self.phase_nid = self.nid[root]

    def _id_list(self, names) -> list[int]:
        return [self._ids[n] for n in names if n in self._ids]

    def select(self, names=None, layer=None, phases=None, parent=None) -> np.ndarray:
        """Mask of spans matching every given filter."""
        if layer is not None:
            names = [n for n in self._ids if n.split(".", 1)[0] == layer]
        mask = np.ones(len(self.dur), dtype=bool)
        if names is not None:
            mask &= np.isin(self.nid, self._id_list(names))
        if phases is not None:
            mask &= np.isin(self.phase_nid, self._id_list(phases))
        if parent is not None:
            mask &= self.parent_nid == self._ids.get(parent, -2)
        return mask


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_names(metrics: dict) -> list[str]:
    return [n for n in metrics if n in EXACT or n.endswith((".calls", ".failed"))]


def work_counts(s: SpanTable) -> dict[str, int]:
    """Runs, rounds and queries of the Monte Carlo phase: the fixed work."""
    main = s.select(phases=("bench.mc",))
    runs = main & s.select({"orchestrator.run_altt"})
    return {"runs": int(runs.sum()), "rounds": int(s.value[runs].sum()),
            "queries": int(s.value[main & s.select(_SOURCES)].sum())}


def layer_metrics(s: SpanTable, extras: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    Engine layers (rng, acquisition, betting, eprocess, selection,
    orchestrator), simharness and cli are measured on the Monte Carlo phase;
    oracle and runio on the logged run and its replay.  A layer the workload never calls reports 0.  ``extras``
    carries what is measured outside the spans.
    """
    us = 1e6
    mc, logged, replay = ("bench.mc",), ("bench.logged",), ("bench.replay",)
    runs = s.select({"orchestrator.run_altt"})

    def total(mask, attr="self_time"):
        return float(getattr(s, attr)[mask].sum())

    def count(mask):
        return int(mask.sum())

    def rounds(phases):
        return int(s.value[runs & s.select(phases=phases)].sum())

    r_mc, r_logged, r_replay = rounds(mc), rounds(logged), rounds(replay)
    mc_trials = count(runs & s.select(phases=mc))
    out: dict[str, float] = {}
    for layer in LAYERS:
        m = s.select(layer=layer)
        out[f"{layer}.calls"] = count(m)
        out[f"{layer}.failed"] = int(s.failed[m].sum())

    mix = s.select({"rng.mix64", "rng.token_mix64"}, phases=mc)
    out["rng.mix64_calls_per_round"] = _ratio(count(mix), r_mc)
    out["rng.us_per_round"] = _ratio(total(s.select(layer="rng", phases=mc)) * us, r_mc)
    unread = s.select(s.unread_sources, phases=mc)
    out["rng.token_hashes_unread_per_round"] = _ratio(count(unread), r_mc)

    draws = s.select({"simharness.draw"}, phases=mc)
    out["simharness.draw_us_per_risk"] = _ratio(total(draws) * us, int(s.value[draws].sum()))
    score = s.select({"simharness.hook", "simharness.accumulate"}, phases=mc)
    out["simharness.score_us_per_trial"] = _ratio(total(score, "dur") * us, mc_trials)
    trials = s.select({"simharness.trial"}, phases=mc)
    out["simharness.pool_result_bytes_per_trial"] = _ratio(int(s.value[trials].sum()), count(trials))
    out["simharness.pool_efficiency"] = extras["pool_efficiency"]

    acq = s.select({"acquisition.select_batch"}, phases=mc)
    out["acquisition.us_per_call"] = _ratio(total(acq) * us, count(acq))
    explore = s.select({"rng.sample_without_replacement"}, phases=mc,
                       parent="acquisition.select_batch")
    out["acquisition.explore_ratio"] = _ratio(count(explore), r_mc)

    bets = s.select(layer="betting", phases=mc)
    out["betting.us_per_update"] = _ratio(
        total(bets) * us, count(s.select({"betting.next_bet"}, phases=mc)))
    eproc = s.select(layer="eprocess", phases=mc)
    out["eprocess.us_per_update"] = _ratio(
        total(eproc) * us, count(s.select({"eprocess.update"}, phases=mc)))

    sel = s.select(layer="selection", phases=mc)
    out["selection.us_per_call"] = _ratio(total(sel) * us, count(sel))
    out["selection.set_change_ratio"] = _ratio(int(s.value[sel].sum()), count(sel))

    out["orchestrator.self_us_per_round"] = _ratio(
        total(runs & s.select(phases=mc)) * us, r_mc)

    rtt = s.dur[s.select({"oracle.query"}, phases=logged)] * us
    out["oracle.rtt_us_p50"] = float(np.percentile(rtt, 50)) if len(rtt) else 0.0
    out["oracle.rtt_us_p99"] = float(np.percentile(rtt, 99)) if len(rtt) else 0.0
    hand = s.dur[s.select({"oracle.handshake"}, phases=logged)] * 1e3
    out["oracle.handshake_ms"] = float(np.median(hand)) if len(hand) else 0.0

    writes = s.select({f"runio.{w}" for w in _WRITERS}, phases=logged)
    out["runio.write_us_per_round"] = _ratio(total(writes, "dur") * us, r_logged)
    out["runio.rounds_csv_bytes_per_round"] = _ratio(extras["rounds_csv_bytes"], r_logged)
    parse = s.select({"runio.parse_rounds"}, phases=replay)
    out["runio.replay_parse_us_per_round"] = _ratio(total(parse, "dur") * us, r_replay)
    out["runio.replay_engine_us_per_round"] = _ratio(
        total(runs & s.select(phases=replay), "dur") * us, r_replay)

    mains = s.select({"cli.main"}, phases=mc)
    inner = s.select({"simharness.run_trials"}, phases=mc)
    out["cli.overhead_ms"] = _ratio((total(mains, "dur") - total(inner, "dur")) * 1e3, count(mains))
    out["trace.overhead_ratio"] = extras["trace_overhead_ratio"]
    return out
