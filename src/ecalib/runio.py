"""Config files, run directories, and replay verification.

A run directory holds:

- ``manifest.json``: config echo, tool version, rng mixer id, base seed,
  timestamps, and (single runs) the stop reason.  The config echo re-parses
  to the exact config that ran.
- ``rounds.csv``: one row per recorded round with columns
  trial, t, tested_ids, risks, wealths, selected_ids.  Multi-valued cells are
  semicolon-joined (metric values within one id joined by '|'); floats carry
  17 significant digits so replay comparisons are exact at printed precision.
- ``summary.csv``: per-round curves t, tpr, fwer, fdr, mean_set_size.
- ``final.json``: the headline numbers (selected set / stop reason / T for
  single runs; metric estimates and the pass verdict for validation runs).
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
from pathlib import Path
from typing import Sequence

from . import __version__
from .core import (
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    ErrorMetric,
    MetricSpec,
    SelectionRuleName,
    validate_config,
)
from .errors import EcalibError, InvalidConfig
from .orchestrator import RunResult, run_altt
from .rng import MIXER_ID
from .simharness import (
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    Distribution,
    MetricsSummary,
    PointMass,
    SyntheticSpec,
)


class ReplayMismatch(EcalibError):
    """A logged run could not be reproduced from its own rounds.csv."""


@dataclasses.dataclass(frozen=True)
class OracleSpec:
    command: str
    timeout: float = 60.0


@dataclasses.dataclass(frozen=True)
class RunPlan:
    cfg: CalibrationConfig
    source: SyntheticSpec | CompositeSyntheticSpec | OracleSpec
    sweep: dict[str, list]


def fmt17(x: float) -> str:
    return "%.17g" % x


def _dist_to_dict(d: Distribution) -> dict:
    if isinstance(d, Bernoulli):
        return {"dist": "bernoulli", "p": d.p}
    if isinstance(d, Beta):
        return {"dist": "beta", "a": d.a, "b": d.b}
    return {"dist": "point", "value": d.value}


def _dist_from_dict(d: dict) -> Distribution:
    kind = d.get("dist")
    if kind == "bernoulli":
        return Bernoulli(float(d["p"]))
    if kind == "beta":
        return Beta(float(d["a"]), float(d["b"]))
    if kind == "point":
        return PointMass(float(d["value"]))
    raise InvalidConfig([f"unknown distribution {kind!r}"])


def _synth_to_dict(s: SyntheticSpec) -> dict:
    out = {
        "kind": "synthetic",
        "arms": [_dist_to_dict(a) for a in s.arms],
        "shared_draw": s.shared_draw,
    }
    if s.quantile_threshold is not None:
        out["quantile_threshold"] = s.quantile_threshold
    return out


def _synth_from_dict(d: dict) -> SyntheticSpec:
    thr = d.get("quantile_threshold")
    return SyntheticSpec(
        arms=tuple(_dist_from_dict(a) for a in d.get("arms", [])),
        shared_draw=bool(d.get("shared_draw", False)),
        quantile_threshold=None if thr is None else float(thr),
    )


def source_to_dict(source) -> dict:
    if isinstance(source, SyntheticSpec):
        return _synth_to_dict(source)
    if isinstance(source, CompositeSyntheticSpec):
        return {"kind": "composite", "metrics": [_synth_to_dict(m) for m in source.metrics]}
    return {"kind": "oracle", "command": source.command, "timeout": source.timeout}


def config_to_dict(plan: RunPlan) -> dict:
    cfg = plan.cfg
    out = {
        "n_candidates": cfg.n_candidates,
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "direction": cfg.direction.value,
        "error_metric": cfg.error_metric.value,
        "selection_rule": cfg.selection_rule.value,
        "literal_set": cfg.literal_set,
        "acquisition": {
            "policy": cfg.acquisition.policy.value,
            "epsilon": cfg.acquisition.epsilon,
            "batch_size": cfg.acquisition.batch_size,
        },
        "betting": {
            "strategy": cfg.betting.strategy.value,
            "clip_fraction": cfg.betting.clip_fraction,
            "max_bet_epsilon": cfg.betting.max_bet_epsilon,
        },
        "t_max": cfg.t_max,
        "d_stop": cfg.d_stop,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "source": source_to_dict(plan.source),
    }
    if cfg.fixed_sequence_order is not None:
        out["fixed_sequence_order"] = list(cfg.fixed_sequence_order)
    if cfg.extra_metrics:
        out["extra_metrics"] = [
            {"alpha": m.alpha, "direction": m.direction.value} for m in cfg.extra_metrics
        ]
    if plan.sweep:
        out["sweep"] = plan.sweep
    return out


def _enum_value(enum_cls, raw, field: str):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise InvalidConfig([f"{field} must be one of: {allowed}"]) from None


def parse_config(d: dict) -> RunPlan:
    """Validate and convert one JSON config document into a RunPlan."""
    try:
        batch_size = int(d["batch_size"]) if "batch_size" in d else 1
        acq_d = d.get("acquisition", {})
        acq = AcquisitionSpec(
            policy=_enum_value(AcquisitionPolicy, acq_d.get("policy", "uniform_all"), "acquisition.policy"),
            epsilon=float(acq_d.get("epsilon", 0.0)),
            batch_size=int(acq_d.get("batch_size", batch_size)),
        )
        bet_d = d.get("betting", {})
        bet = BettingSpec(
            strategy=_enum_value(BettingStrategy, bet_d.get("strategy", "agrapa"), "betting.strategy"),
            clip_fraction=float(bet_d.get("clip_fraction", 0.75)),
            max_bet_epsilon=float(bet_d.get("max_bet_epsilon", 1e-6)),
        )
        order = d.get("fixed_sequence_order")
        extra = tuple(
            MetricSpec(float(m["alpha"]), _enum_value(Direction, m["direction"], "extra_metrics.direction"))
            for m in d.get("extra_metrics", [])
        )
        cfg = CalibrationConfig(
            n_candidates=int(d["n_candidates"]),
            alpha=float(d["alpha"]),
            delta=float(d["delta"]),
            direction=_enum_value(Direction, d["direction"], "direction"),
            error_metric=_enum_value(ErrorMetric, d["error_metric"], "error_metric"),
            selection_rule=_enum_value(SelectionRuleName, d["selection_rule"], "selection_rule"),
            acquisition=acq,
            betting=bet,
            t_max=int(d["t_max"]),
            d_stop=int(d["d_stop"]),
            batch_size=batch_size,
            seed=int(d["seed"]),
            literal_set=bool(d.get("literal_set", False)),
            fixed_sequence_order=None if order is None else tuple(int(i) for i in order),
            extra_metrics=extra,
        )
    except KeyError as exc:
        raise InvalidConfig([f"missing config field {exc.args[0]!r}"]) from None

    src_d = d.get("source")
    if not isinstance(src_d, dict):
        raise InvalidConfig(["config needs a source block"])
    kind = src_d.get("kind")
    if kind == "synthetic":
        source = _synth_from_dict(src_d)
        if source.n != cfg.n_candidates:
            raise InvalidConfig(["source arm count disagrees with n_candidates"])
    elif kind == "composite":
        source = CompositeSyntheticSpec(
            tuple(_synth_from_dict(m) for m in src_d.get("metrics", []))
        )
        if source.n != cfg.n_candidates:
            raise InvalidConfig(["source arm count disagrees with n_candidates"])
        if len(source.metrics) != 1 + len(cfg.extra_metrics):
            raise InvalidConfig(["composite source metric count disagrees with config"])
    elif kind == "oracle":
        source = OracleSpec(str(src_d["command"]), float(src_d.get("timeout", 60.0)))
        if cfg.extra_metrics:
            raise InvalidConfig(["oracle sources support single-metric configs only"])
    else:
        raise InvalidConfig([f"unknown source kind {kind!r}"])

    sweep = d.get("sweep", {})
    allowed_axes = {"epsilon", "delta", "alpha", "strategy"}
    if not isinstance(sweep, dict) or not set(sweep) <= allowed_axes:
        raise InvalidConfig([f"sweep axes must be a subset of {sorted(allowed_axes)}"])

    validate_config(cfg)
    return RunPlan(cfg=cfg, source=source, sweep=dict(sweep))


def load_config(path: str | Path) -> RunPlan:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig([f"config is not valid JSON: {exc}"]) from None
    return parse_config(doc)


def utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def write_manifest(
    out_dir: Path,
    plan: RunPlan,
    *,
    started: str,
    finished: str,
    stop_reason: str | None = None,
    trials: int | None = None,
) -> None:
    doc = {
        "tool": "ecalib",
        "version": __version__,
        "rng_mixer": MIXER_ID,
        "base_seed": plan.cfg.seed,
        "started_utc": started,
        "finished_utc": finished,
        "stop_reason": stop_reason,
        "trials": trials,
        "config": config_to_dict(plan),
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


def _risk_cell(risks_row, multi_metric: bool) -> str:
    if multi_metric:
        return ";".join("|".join(fmt17(x) for x in row) for row in risks_row)
    return ";".join(fmt17(r) for r in risks_row)


def write_rounds_csv(out_dir: Path, results: Sequence[tuple[int, RunResult]], multi_metric: bool) -> None:
    with open(out_dir / "rounds.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "t", "tested_ids", "risks", "wealths", "selected_ids"])
        for trial, result in results:
            for rec in result.records:
                w.writerow(
                    [
                        trial,
                        rec.t,
                        ";".join(str(i) for i in rec.tested),
                        _risk_cell(rec.risks, multi_metric),
                        ";".join(fmt17(rec.wealth[i]) for i in rec.tested),
                        ";".join(str(i) for i in sorted(rec.selected)),
                    ]
                )


def write_summary_csv(
    out_dir: Path,
    tpr: Sequence[float],
    fwer: Sequence[float],
    fdr: Sequence[float],
    sizes: Sequence[float],
) -> None:
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "tpr", "fwer", "fdr", "mean_set_size"])
        for t in range(len(sizes)):
            w.writerow([t + 1, fmt17(tpr[t]), fmt17(fwer[t]), fmt17(fdr[t]), fmt17(sizes[t])])


def summary_curves(summary: MetricsSummary):
    return summary.tpr_curve, summary.fwer_curve, summary.fdr_curve, summary.set_size_curve


def realized_curves(result: RunResult, reliable: frozenset[int] | None):
    """Single-trial curves over the recorded rounds; ground-truth columns are
    NaN when no reliable set is known (external oracle runs)."""
    nan = float("nan")
    tpr, fwer, fdr, sizes = [], [], [], []
    for rec in result.records:
        sel = rec.selected
        sizes.append(float(len(sel)))
        if reliable is None:
            tpr.append(nan)
            fwer.append(nan)
            fdr.append(nan)
            continue
        n_rel = len(reliable)
        hits = len(sel & reliable)
        false = len(sel) - hits
        tpr.append(hits / n_rel if n_rel else nan)
        fwer.append(1.0 if false else 0.0)
        fdr.append(false / len(sel) if sel else 0.0)
    return tpr, fwer, fdr, sizes


def write_final_json(out_dir: Path, doc: dict) -> None:
    (out_dir / "final.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class ReplaySource:
    """Serves the risks logged in rounds.csv back to the engine, verifying
    that the engine asks for exactly the logged ids in each round."""

    reads_token = False

    def __init__(self, rows: dict[int, dict], multi_metric: bool):
        self.rows = rows
        self.multi_metric = multi_metric

    def query(self, round_index: int, ids: Sequence[int], token: str):
        row = self.rows.get(round_index)
        if row is None:
            raise ReplayMismatch(f"round {round_index} was not logged")
        if list(ids) != row["tested"]:
            raise ReplayMismatch(
                f"round {round_index}: engine asked for {list(ids)}, log has {row['tested']}"
            )
        return row["risks"]


def _parse_rounds_csv(run_dir: Path) -> dict[int, dict[int, dict]]:
    """rounds.csv -> {trial: {t: {tested, risks(raw strings), wealths, selected}}}."""
    trials: dict[int, dict[int, dict]] = {}
    with open(run_dir / "rounds.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            t = int(row["t"])
            tested = [int(x) for x in row["tested_ids"].split(";")] if row["tested_ids"] else []
            selected = (
                [int(x) for x in row["selected_ids"].split(";")] if row["selected_ids"] else []
            )
            trials.setdefault(int(row["trial"]), {})[t] = {
                "tested": tested,
                "risk_cell": row["risks"],
                "wealth_strs": row["wealths"].split(";") if row["wealths"] else [],
                "selected": selected,
            }
    return trials


def replay_check(run_dir: str | Path) -> int:
    """Re-run the engine from the logged risks and compare wealths and
    selections at printed precision.  Returns the number of rounds checked;
    raises ReplayMismatch on the first disagreement."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    plan = parse_config(manifest["config"])
    multi = bool(plan.cfg.extra_metrics)
    trials = _parse_rounds_csv(run_dir)
    if not trials:
        raise ReplayMismatch("rounds.csv holds no rounds")
    checked = 0
    for trial, rows in sorted(trials.items()):
        for t, row in rows.items():
            if multi:
                row["risks"] = [
                    tuple(float(x) for x in cell.split("|"))
                    for cell in row["risk_cell"].split(";")
                ]
            else:
                row["risks"] = [float(x) for x in row["risk_cell"].split(";")]
        source = ReplaySource(rows, multi)
        result = run_altt(plan.cfg, source, trial=trial, record_rounds=True)
        if len(result.records) != len(rows):
            raise ReplayMismatch(
                f"trial {trial}: replay produced {len(result.records)} rounds, log has {len(rows)}"
            )
        for rec in result.records:
            row = rows[rec.t]
            got_wealths = [fmt17(rec.wealth[i]) for i in rec.tested]
            if got_wealths != row["wealth_strs"]:
                raise ReplayMismatch(
                    f"trial {trial} round {rec.t}: wealths {got_wealths} != logged {row['wealth_strs']}"
                )
            if sorted(rec.selected) != row["selected"]:
                raise ReplayMismatch(
                    f"trial {trial} round {rec.t}: selected {sorted(rec.selected)} != logged {row['selected']}"
                )
            checked += 1
    return checked
