"""One benchmark run of one workload: set-up probes, measured cycles, checks.

A cycle runs ``ecalib validate`` in process on the workload's synthetic
config, then its logged runs (``ecalib calibrate`` or ``ecalib simulate``, in
process, with a round hook that stamps each round), each followed by
``replay_check`` on its run directory.  Every cycle checks its outputs: the
validate gate passes, ``final.json`` is byte-identical at both worker counts
and across cycles, every trial does the fixed work (``t_max`` rounds of
``batch_size`` queries), each logged run reaches ``t_max``, replay reproduces
every round, and ``rounds.csv`` is byte-identical whenever a logged run's
seed repeats.

Both runs hold themselves on one CPU and start with a warm-up cycle at
``WARMUP_TRIALS`` trials, whose outputs are checked and whose timings are
dropped.  The untraced run then repeats measured cycles, each after
``PROBES_PER_CYCLE`` set-up probes, until ``seconds`` have passed (and at
least ``MIN_CYCLES`` cycles and ``MIN_ROUND_SAMPLES`` round intervals are
in); validate runs at workers 2 as well in its first measured cycle.  The
traced run makes one measured untraced cycle, then three traced passes at
workers 1: two on the same seed, whose exact counters must agree, and one on
the next seed, whose fixed-work counts must agree with the first.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from ecalib import cli, runio

import tracing
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
ALL_CPUS = os.sched_getaffinity(0)
PROBES_PER_CYCLE = 1
MIN_CYCLES = 3
WARMUP_TRIALS = 2
# round_ms_p99 needs at least ten intervals beyond the 99th percentile.
MIN_ROUND_SAMPLES = 1000
# The end-to-end metrics other than peak_rss_mb.  The others are printed in
# the report without a bound.  The round p99 and the calibrate throughput
# (which sums every round, tail included) follow the host's scheduling
# stalls, and the round p50 jumps between the host's two speed levels; each
# swung several-fold between runs of the same code.  trials_per_s_w2 follows
# how much the host's second CPU adds, which ranged from 0x to 0.8x of one.
END_TO_END = ("setup_s", "trials_per_s_w1", "round_ms_iqm", "replay_rounds_per_s")
UNBOUNDED_UNITS = {"trials_per_s_w2": "trials/s", "round_ms_p50": "ms", "round_ms_p99": "ms",
                   "calibrate_rounds_per_s": "rounds/s"}
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


@contextmanager
def _cpus(cpus: set[int]):
    """Run the block with this process allowed only ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Tally:
    """Trials, rounds and checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def attempt(self, units: int, what: str, fn):
        """Run ``fn`` as ``units`` work items; all of them fail if it raises."""
        self.attempted += units
        try:
            return fn()
        except Exception:
            self.failed += units
            self.problems.append(f"{what} raised")
            raise


@dataclass
class Cycle:
    validate_s: dict[int, float] = field(default_factory=dict)
    logged_s: float = 0.0
    logged_rounds: int = 0
    intervals: list[float] = field(default_factory=list)
    rounds_csv_bytes: int = 0
    replay_s: float = 0.0
    replayed: int = 0  # rounds replay_check reproduced
    estimates: dict = field(default_factory=dict)

    @property
    def end_to_end_s(self) -> float:
        """Wall time of the workers=1 validate, the logged runs and their replays."""
        return self.validate_s[1] + self.logged_s + self.replay_s


def write_configs(w: Workload, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    (work / "mc.json").write_text(json.dumps(w.mc_config), encoding="utf-8")
    (work / "logged.json").write_text(json.dumps(w.logged_config), encoding="utf-8")


def _validate(w: Workload, work: Path, workers: int) -> tuple[int, float]:
    argv = ["validate", "--config", str(work / "mc.json"), "--trials", str(w.trials),
            "--out", str(work / f"mc_w{workers}"), "--workers", str(workers)]
    t0 = perf_counter()
    rc = cli.main(argv)
    return rc, perf_counter() - t0


def _logged_run(w: Workload, work: Path, k: int, stamps: list[float]) -> tuple[int, float]:
    """``ecalib calibrate`` (oracle) or ``ecalib simulate --seed <seed + k>``,
    in process, with every round stamped into ``stamps``.

    The command's ``run_altt`` is substituted while it runs, to pass a round
    hook and to stamp the start of the run, which follows the oracle
    handshake (or the source's construction).  Returns the exit status and
    the time from that start until the command has written the run directory.
    """
    out = work / "logged"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["calibrate" if w.oracle else "simulate", "--config", str(work / "logged.json"),
            "--out", str(out)]
    if not w.oracle:
        argv += ["--seed", str(w.seed + k)]

    def stamp(*_):
        stamps.append(perf_counter())

    run_altt = cli.run_altt

    def hooked(*args, **kwargs):
        stamp()
        return run_altt(*args, round_hook=stamp, **kwargs)

    cli.run_altt = hooked
    try:
        rc = cli.main(argv)
    finally:
        cli.run_altt = run_altt
    return rc, perf_counter() - stamps[0]


def run_cycle(w: Workload, work: Path, tally: Tally, ref: dict,
              workers=(1, 2), tracer=None) -> Cycle:
    """One cycle; ``ref`` holds earlier cycles' output bytes.

    The logged runs take the workload's ``logged_seeds`` in turn, so the M=1
    metrics average over several trajectories, and each trajectory's
    ``rounds.csv`` is compared on every repetition.
    """
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    c = Cycle()
    finals = {}
    for n in workers:
        # Each timed call starts from a collected heap, so that garbage left
        # by earlier calls does not decide when its collections fall.
        gc.collect()
        # A run holds the benchmark on one CPU (see run); the pool's workers
        # are given every CPU.
        with phase("bench.mc"), (_cpus(ALL_CPUS) if n > 1 else nullcontext()):
            rc, c.validate_s[n] = tally.attempt(
                w.trials, f"validate --workers {n}", lambda: _validate(w, work, n))
        tally.check(rc == 0, f"validate --workers {n} exits 0")
        finals[n] = (work / f"mc_w{n}" / "final.json").read_bytes()
    first = finals[workers[0]]
    tally.check(all(f == first for f in finals.values()), "final.json equal at workers 1 and 2")
    tally.check(ref.setdefault("final", first) == first, "final.json equal across repetitions")
    doc = json.loads(first)
    mc = w.mc_config
    tally.check(doc["mean_queries"] == mc["t_max"] * mc["batch_size"], "mean_queries == t_max * batch")
    tally.check(doc["stop_reason_counts"] == {"reached_t_max": w.trials}, "every trial reached t_max")
    c.estimates = {k: doc[k] for k in ("fwer_hat", "fdr_hat_unconditional", "tpr_hat")}

    t_max = w.logged_config["t_max"]
    for k in range(w.logged_seeds):
        what = f"logged run {k}"
        stamps: list[float] = []
        gc.collect()
        with phase("bench.logged"):
            rc, logged_s = tally.attempt(t_max, what, lambda: _logged_run(w, work, k, stamps))
        tally.check(rc == 0, f"{what} exits 0")
        c.logged_s += logged_s
        c.intervals.extend(np.diff(stamps).tolist())
        T = json.loads((work / "logged" / "final.json").read_bytes())["T"]
        tally.check(T == t_max, f"{what} reaches t_max")
        c.logged_rounds += T
        rounds_csv = (work / "logged" / "rounds.csv").read_bytes()
        c.rounds_csv_bytes += len(rounds_csv)
        tally.check(ref.setdefault(f"rounds{k}", rounds_csv) == rounds_csv,
                    f"rounds.csv of {what} equal across repetitions")
        for _ in range(w.replays):
            gc.collect()
            t0 = perf_counter()
            with phase("bench.replay"):
                replayed = tally.attempt(T, f"replay of {what}",
                                         lambda: runio.replay_check(work / "logged"))
            c.replay_s += perf_counter() - t0
            tally.check(replayed == T, f"replay_check of {what} returns T")
            c.replayed += replayed
    return c


def warm_up(w: Workload, work: Path, tally: Tally) -> None:
    """A checked cycle at ``WARMUP_TRIALS`` trials, for caches and lazy imports."""
    run_cycle(dataclasses.replace(w, trials=WARMUP_TRIALS), work, tally, {})


def setup_probe(w: Workload, tally: Tally) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), w.name, str(w.seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    tally.check(line.strip() == "ready" and proc.returncode == 0, "set-up probe reaches ready")
    return elapsed


def tail(xs) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    xs = np.asarray(xs, dtype=float)
    out = {"n": int(len(xs))}
    if not len(xs):
        return out
    out["p50"] = float(np.percentile(xs, 50))
    for p in _PERCENTILES:
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = float(np.percentile(xs, p))
            break
    return out


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _iqm(xs: np.ndarray) -> float:
    """Mean of the middle half: steady under stalls, and under a host whose
    speed flips between two levels (where the median jumps between them)."""
    xs = np.sort(xs)
    return float(np.mean(xs[len(xs) // 4: len(xs) - len(xs) // 4]))


def _measure(w: Workload, work: Path, tally: Tally, seconds: float):
    """Measured cycles for ``seconds``; validate also runs at workers 2 in
    the first, to check its output and report its rate unbounded."""
    setup: list[float] = []
    ref: dict = {}
    cycles: list[Cycle] = []
    t_start = perf_counter()
    warm_up(w, work, tally)
    last = 0.0
    while True:
        elapsed = perf_counter() - t_start
        samples = sum(len(c.intervals) for c in cycles)
        if (len(cycles) >= MIN_CYCLES and samples >= MIN_ROUND_SAMPLES
                and elapsed + last > seconds):
            break
        # Set-up probes are spread over the run, like the cycles, so that
        # both sample the same spells of a noisy host.
        setup.extend(setup_probe(w, tally) for _ in range(PROBES_PER_CYCLE))
        cycles.append(run_cycle(w, work, tally, ref, workers=(1,) if cycles else (1, 2)))
        last = perf_counter() - t_start - elapsed
    m, n = w.trials, len(cycles)
    intervals = np.concatenate([c.intervals for c in cycles]) * 1e3
    # Rates are work over time summed across cycles: a host whose speed
    # flips between two levels makes a median of per-cycle rates jump from
    # one level to the other, while the summed rate moves smoothly.
    values = {
        "setup_s": statistics.median(setup),
        "trials_per_s_w1": m * n / sum(c.validate_s[1] for c in cycles),
        "trials_per_s_w2": m / cycles[0].validate_s[2],
        "round_ms_iqm": _iqm(intervals),
        "round_ms_p50": float(np.percentile(intervals, 50)),
        "round_ms_p99": float(np.percentile(intervals, 99)),
        "calibrate_rounds_per_s": (sum(c.logged_rounds for c in cycles)
                                   / sum(c.logged_s for c in cycles)),
        "replay_rounds_per_s": sum(c.replayed for c in cycles) / sum(c.replay_s for c in cycles),
    }
    metrics = {k: values.pop(k) for k in END_TO_END}
    metrics["peak_rss_mb"] = peak_rss_mb()
    series = {
        "trials_per_s_w1": [m / c.validate_s[1] for c in cycles],
        "calibrate_rounds_per_s": [c.logged_rounds / c.logged_s for c in cycles],
        "replay_rounds_per_s": [c.replayed / c.replay_s for c in cycles],
    }
    timings = {k: tail(v) for k, v in series.items()}
    timings.update(setup_s=tail(setup), round_ms=tail(intervals))
    report = {"cycles": n, "timings": timings,
              "unbounded": {k: {"value": v, "unit": UNBOUNDED_UNITS[k]} for k, v in values.items()},
              "estimates": cycles[0].estimates,
              "series": series}
    return metrics, report


def _traced(make, w: Workload, work: Path, tally: Tally):
    ref: dict = {}
    warm_up(w, work, tally)
    base = run_cycle(w, work, tally, ref)
    passes = []
    for k, seed in enumerate((w.seed, w.seed, w.seed + 1)):
        wk = make(seed)
        pass_work = work / f"traced{k}"
        write_configs(wk, pass_work)
        tr = tracing.Tracer()
        tr.install()
        try:
            c = run_cycle(wk, pass_work, tally, ref if seed == w.seed else {},
                          workers=(1,), tracer=tr)
        finally:
            tr.restore()
        extras = {
            "pool_efficiency": base.validate_s[1] / (2.0 * base.validate_s[2]),
            "trace_overhead_ratio": c.end_to_end_s / base.end_to_end_s,
            "rounds_csv_bytes": c.rounds_csv_bytes,
        }
        spans = tracing.SpanTable(tr)
        passes.append((tracing.layer_metrics(spans, extras), tracing.work_counts(spans)))
        if k == 0:
            tr.save(work / "spans")
        del tr, spans  # one pass's spans in memory at a time
    (a, work_a), (b, _), (_, work_c) = passes
    for name in tracing.exact_names(a):
        tally.check(a[name] == b[name], f"exact counter {name} repeats on the same seed")
    tally.check(work_a == work_c, "fixed-work counts hold on the next seed")
    report = {"exact_counters": {n: a[n] for n in tracing.exact_names(a)},
              "work_counts": work_a, "estimates": base.estimates}
    return a, report


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_features() -> dict:
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:
        return {}
    return {"baseline": list(__cpu_baseline__),
            "dispatched": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def _git_commit() -> str | None:
    """The checkout's HEAD commit; None when the checkout is not a git
    repository, "unknown" when it is one but HEAD cannot be resolved."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    # Without a working git, resolve HEAD through loose refs, then packed-refs.
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_cpu_features": _numpy_features(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run(make, seed: int, seconds: float, trace: bool):
    """Run the workload ``make(seed)``; return (result line, report)."""
    w = make(seed)
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    write_configs(w, work)
    tally = Tally()
    metrics: dict = {}
    report: dict = {}
    # How much a second CPU adds on a small shared host swings between runs
    # (two busy processes ran from 1.0x to 1.8x as fast as one), so a run
    # holds the benchmark and its children on one CPU: validate at workers 1,
    # the logged runs with the oracle child (which alternates with the
    # engine, so sharing its CPU costs it nothing), replays and set-up
    # probes.  Only the pool of ``validate --workers 2`` gets every CPU.
    try:
        with _cpus({min(ALL_CPUS)}):
            if trace:
                metrics, report = _traced(make, w, work, tally)
            else:
                metrics, report = _measure(w, work, tally, seconds)
    except Exception:
        traceback.print_exc()
        if not tally.problems:
            tally.check(False, "benchmark raised")
    env = environment(seed)
    # A repository whose HEAD cannot be resolved would let results of
    # different commits pass for one; a checkout without .git records null.
    tally.check(env["git_commit"] != "unknown", "git commit of the checkout resolved")
    report.update(workload=w.name, env=env, problems=tally.problems,
                  failed_ratio=tally.failed / max(tally.attempted, 1))
    result = {"correct": tally.failed == 0 and bool(metrics), "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    return result, report
