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
import enum
import json
import math
from pathlib import Path
from typing import Sequence, get_type_hints

from . import __version__
from .core import (
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
from .errors import EcalibError, InvalidConfig, OracleError
from .oracle import DEFAULT_TIMEOUT, command_argv
from .orchestrator import RunResult, run_altt
from .rng import MIXER_ID
from .simharness import (
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    Distribution,
    PointMass,
    SyntheticSpec,
)


class ReplayMismatch(EcalibError):
    """A run directory could not be read back, or its log not reproduced."""


@dataclasses.dataclass(frozen=True)
class OracleSpec:
    command: str
    timeout: float = DEFAULT_TIMEOUT


@dataclasses.dataclass(frozen=True)
class RunPlan:
    cfg: CalibrationConfig
    source: SyntheticSpec | CompositeSyntheticSpec | OracleSpec
    sweep: dict[str, list]


def fmt17(x: float) -> str:
    return "%.17g" % x


def _synth_to_dict(s: SyntheticSpec) -> dict:
    out = {
        "kind": "synthetic",
        "arms": [_dist_to_dict(a) for a in s.arms],
        "shared_draw": s.shared_draw,
    }
    if s.quantile_threshold is not None:
        out["quantile_threshold"] = s.quantile_threshold
    return out


def source_to_dict(source) -> dict:
    if isinstance(source, SyntheticSpec):
        return _synth_to_dict(source)
    if isinstance(source, CompositeSyntheticSpec):
        return {"kind": "composite", "metrics": [_synth_to_dict(m) for m in source.metrics]}
    return {"kind": "oracle", **_spec_to_dict(source)}


def _spec_to_dict(spec) -> dict:
    """A spec dataclass as JSON: its fields in order, enum members by value."""
    out = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    return {key: v.value if isinstance(v, enum.Enum) else v for key, v in out.items()}


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
        "acquisition": _spec_to_dict(cfg.acquisition),
        "betting": _spec_to_dict(cfg.betting),
        "t_max": cfg.t_max,
        "d_stop": cfg.d_stop,
        "batch_size": cfg.acquisition.batch_size,
        "seed": cfg.seed,
        "source": source_to_dict(plan.source),
    }
    if cfg.fixed_sequence_order is not None:
        out["fixed_sequence_order"] = list(cfg.fixed_sequence_order)
    if cfg.extra_metrics:
        out["extra_metrics"] = [_spec_to_dict(m) for m in cfg.extra_metrics]
    if plan.sweep:
        out["sweep"] = plan.sweep
    return out


_REQUIRED = object()
_JSON_TYPE = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object", list: "list"}

# Sweep axes in grid order: the cells of cmd_sweep are their product.
SWEEP_AXES = ("strategy", "alpha", "delta", "epsilon")

# Each distribution's parameters, their domain, and how a violation reads.
_UNIT = (lambda v: 0.0 <= v <= 1.0, "out of [0,1]")
_DISTS = {
    "bernoulli": (Bernoulli, ("p",), *_UNIT),
    "beta": (Beta, ("a", "b"), lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0"),
    "point": (PointMass, ("value",), *_UNIT),
}
_DIST_NAMES = {entry[0]: name for name, entry in _DISTS.items()}

# The two rule/metric mismatches, named by the metric the config states.
_METRIC_RULES = {ErrorMetric.FWER: "bonferroni or fixed_sequence", ErrorMetric.FDR: "bh, by, or ebh"}


def _dist_to_dict(d: Distribution) -> dict:
    name = _DIST_NAMES[type(d)]
    return {"dist": name, **{key: getattr(d, key) for key in _DISTS[name][1]}}


def _check(value, kind, name: str, bad: list[str]):
    """value as ``kind`` if it has the matching JSON type, else None with a
    violation in bad.  An enum takes one of its string values; an integer is
    a valid float (returned as one); a boolean is only a boolean."""
    if isinstance(kind, enum.EnumMeta):
        return _enum_value(kind, value, name, bad)
    json_types = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, json_types):
        bad.append(f"{name} must be a JSON {_JSON_TYPE[kind]}, got {value!r}")
        return None
    return float(value) if kind is float else value


def _field(d: dict, key: str, kind, bad: list[str], default=_REQUIRED, name: str | None = None):
    """d[key] checked by _check; a missing key yields the default or, for a
    required field, a violation.  Fields that default to None may be null."""
    if key not in d and default is _REQUIRED:
        bad.append(f"missing config field {name or key!r}")
    if key not in d or (d[key] is None and default is None):
        return None if default is _REQUIRED else default
    return _check(d[key], kind, name or key, bad)


def _spec_from_dict(cls, d: dict, name: str, bad: list[str], **defaults):
    """cls from its JSON block, each field checked by _field against its
    annotated type; a missing field takes the dataclass default, or the one
    given in defaults."""
    kinds = get_type_hints(cls)
    return cls(**{
        f.name: _field(d, f.name, kinds[f.name], bad,
                       defaults.get(f.name, _REQUIRED if f.default is dataclasses.MISSING else f.default),
                       f"{name}.{f.name}")
        for f in dataclasses.fields(cls)
    })


def _enum_value(enum_cls, raw, field: str, bad: list[str]):
    try:
        return enum_cls(raw)
    except ValueError:
        bad.append(f"{field} must be one of: {', '.join(e.value for e in enum_cls)}")
        return None


def _dist_from_dict(d, name: str, bad: list[str]) -> Distribution | None:
    """One arm; a parameter outside its distribution's domain is refused here."""
    if _check(d, dict, name, bad) is None:
        return None
    if d.get("dist") not in _DISTS:
        bad.append(f"unknown distribution {d.get('dist')!r} at {name}")
        return None
    cls, params, in_domain, domain = _DISTS[d["dist"]]
    values = [_field(d, key, float, bad, name=f"{name}.{key}") for key in params]
    for key, v in zip(params, values):
        if v is not None and not in_domain(v):
            bad.append(f"{name}.{key} {v!r} {domain}")
    return cls(*values)


def _synth_from_dict(d, name: str, bad: list[str]) -> SyntheticSpec | None:
    if _check(d, dict, name, bad) is None:
        return None
    arms = _field(d, "arms", list, bad, [], f"{name}.arms") or []
    return SyntheticSpec(
        arms=tuple(_dist_from_dict(a, f"{name}.arms[{j}]", bad) for j, a in enumerate(arms)),
        shared_draw=_field(d, "shared_draw", bool, bad, SyntheticSpec.shared_draw, f"{name}.shared_draw"),
        quantile_threshold=_field(
            d, "quantile_threshold", float, bad, SyntheticSpec.quantile_threshold, f"{name}.quantile_threshold"
        ),
    )


def sweep_value(cfg: CalibrationConfig, axis: str, value) -> CalibrationConfig:
    """cfg with one sweep axis set to value."""
    if axis == "strategy":
        return dataclasses.replace(cfg, betting=dataclasses.replace(cfg.betting, strategy=BettingStrategy(value)))
    if axis == "epsilon":
        return dataclasses.replace(cfg, acquisition=dataclasses.replace(cfg.acquisition, epsilon=float(value)))
    return dataclasses.replace(cfg, **{axis: float(value)})


def parse_config(d: dict) -> RunPlan:
    """Validate and convert one JSON config document into a RunPlan.

    Flags must be JSON booleans, counts and the seed JSON integers, rates
    JSON numbers.  Each InvalidConfig lists every violation of its stage:
    types, then the source and validate_config, then the sweep values (each
    put into the config), so that no sweep cell fails after others have run.
    """
    if not isinstance(d, dict):
        raise InvalidConfig(["config must be a JSON object"])
    bad: list[str] = []
    batch_size = _field(d, "batch_size", int, bad, AcquisitionSpec.batch_size)
    metric = _field(d, "error_metric", ErrorMetric, bad)
    acq_d = _field(d, "acquisition", dict, bad, {}) or {}
    bet_d = _field(d, "betting", dict, bad, {}) or {}
    order = _field(d, "fixed_sequence_order", list, bad, None)
    extra = tuple(
        _spec_from_dict(MetricSpec, m, f"extra_metrics[{j}]", bad)
        for j, m in enumerate(_field(d, "extra_metrics", list, bad, []) or [])
        if _check(m, dict, f"extra_metrics[{j}]", bad) is not None
    )
    cfg = CalibrationConfig(
        n_candidates=_field(d, "n_candidates", int, bad),
        alpha=_field(d, "alpha", float, bad),
        delta=_field(d, "delta", float, bad),
        direction=_field(d, "direction", Direction, bad),
        selection_rule=_field(d, "selection_rule", SelectionRuleName, bad),
        acquisition=_spec_from_dict(AcquisitionSpec, acq_d, "acquisition", bad, batch_size=batch_size),
        betting=_spec_from_dict(BettingSpec, bet_d, "betting", bad),
        t_max=_field(d, "t_max", int, bad),
        d_stop=_field(d, "d_stop", int, bad),
        seed=_field(d, "seed", int, bad),
        literal_set=_field(d, "literal_set", bool, bad, CalibrationConfig.literal_set),
        fixed_sequence_order=None if order is None else tuple(
            _check(i, int, f"fixed_sequence_order[{j}]", bad) for j, i in enumerate(order)
        ),
        extra_metrics=extra,
    )

    src_d = d.get("source")
    if not isinstance(src_d, dict):
        raise InvalidConfig(bad + ["config needs a source block"])
    kind = src_d.get("kind")
    if kind == "synthetic":
        source = _synth_from_dict(src_d, "source", bad)
    elif kind == "composite":
        metrics = _field(src_d, "metrics", list, bad, [], "source.metrics") or []
        metrics = [_synth_from_dict(m, f"source.metrics[{k}]", bad) for k, m in enumerate(metrics)]
        try:
            source = CompositeSyntheticSpec(tuple(m for m in metrics if m is not None))
        except InvalidConfig as exc:
            bad += exc.violations
    elif kind == "oracle":
        source = _spec_from_dict(OracleSpec, src_d, "source", bad)
        if source.command is not None:
            try:
                command_argv(source.command, "source.command")
            except OracleError as exc:
                bad.append(str(exc))
        if source.timeout is not None and not (math.isfinite(source.timeout) and source.timeout > 0.0):
            bad.append("source.timeout must be finite and > 0")
    else:
        bad.append(f"unknown source kind {kind!r}")

    sweep = _field(d, "sweep", dict, bad, {}) or {}
    if not set(sweep) <= set(SWEEP_AXES):
        bad.append(f"sweep axes must be a subset of {sorted(SWEEP_AXES)}")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            bad.append(f"sweep.{axis} must be a nonempty JSON list")
    if bad:
        raise InvalidConfig(bad)

    if isinstance(source, (SyntheticSpec, CompositeSyntheticSpec)) and source.n != cfg.n_candidates:
        bad.append("source arm count disagrees with n_candidates")
    if isinstance(source, CompositeSyntheticSpec) and len(source.metrics) != 1 + len(cfg.extra_metrics):
        bad.append("composite source metric count disagrees with config")
    if isinstance(source, OracleSpec) and cfg.extra_metrics:
        bad.append("oracle sources support single-metric configs only")
    # The JSON states two settings that the config holds once.
    if metric is not None and cfg.selection_rule is not None and metric is not cfg.error_metric:
        bad.append(f"rule/metric mismatch: {metric.name} requires {_METRIC_RULES[metric]}")
    if batch_size is not None and cfg.acquisition.batch_size != batch_size:
        bad.append("acquisition.batch_size disagrees with config batch_size")
    try:
        validate_config(cfg)
    except InvalidConfig as exc:
        bad += exc.violations
    if bad:
        raise InvalidConfig(bad)
    for axis, values in sweep.items():
        for j, v in enumerate(values):
            name = f"sweep.{axis}[{j}]"
            if _check(v, BettingStrategy if axis == "strategy" else float, name, bad) is not None:
                try:
                    validate_config(sweep_value(cfg, axis, v))
                except InvalidConfig as exc:
                    bad += [f"{name} {v!r}: {m}" for m in exc.violations]
    if bad:
        raise InvalidConfig(bad)
    return RunPlan(cfg=cfg, source=source, sweep=dict(sweep))


def _read_json(path: Path, error):
    """The JSON document at path; a file that cannot be read, is not UTF-8
    or is not JSON raises error(message naming the path)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


def load_config(path: str | Path) -> RunPlan:
    return parse_config(_read_json(path, lambda message: InvalidConfig([message])))


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
    path = Path(run_dir) / "manifest.json"
    doc = _read_json(path, ReplayMismatch)
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ReplayMismatch(f"{path} holds no config object")
    return doc


ROUNDS_HEADER = ["trial", "t", "tested_ids", "risks", "wealths", "selected_ids"]


def _risk_cell(risks_row, multi_metric: bool) -> str:
    if multi_metric:
        return ";".join("|".join(fmt17(x) for x in row) for row in risks_row)
    return ";".join(fmt17(r) for r in risks_row)


def write_rounds_csv(out_dir: Path, results: Sequence[tuple[int, RunResult]], multi_metric: bool) -> None:
    with open(out_dir / "rounds.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ROUNDS_HEADER)
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

    def __init__(self, rows: dict[int, dict]):
        self.rows = rows

    def query(self, round_index: int, ids: Sequence[int], token: str):
        row = self.rows.get(round_index)
        if row is None:
            raise ReplayMismatch(f"round {round_index} was not logged")
        if list(ids) != row["tested"]:
            raise ReplayMismatch(
                f"round {round_index}: engine asked for {list(ids)}, log has {row['tested']}"
            )
        return row["risks"]


def _parse_rounds_csv(run_dir: Path, multi_metric: bool) -> dict[int, dict[int, dict]]:
    """rounds.csv -> {trial: {t: {tested, risks, wealth_strs, selected}}};
    ReplayMismatch names the file (and line) of any unreadable part."""
    path = run_dir / "rounds.csv"
    trials: dict[int, dict[int, dict]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            if reader.fieldnames != ROUNDS_HEADER:
                raise ReplayMismatch(f"{path}: header {reader.fieldnames} != {ROUNDS_HEADER}")
            for row in reader:
                t = int(row["t"])
                tested = [int(x) for x in row["tested_ids"].split(";")] if row["tested_ids"] else []
                selected = (
                    [int(x) for x in row["selected_ids"].split(";")] if row["selected_ids"] else []
                )
                cells = row["risks"].split(";")
                risks = [tuple(map(float, c.split("|"))) for c in cells] if multi_metric else list(map(float, cells))
                trials.setdefault(int(row["trial"]), {})[t] = {
                    "tested": tested,
                    "risks": risks,
                    "wealth_strs": row["wealths"].split(";") if row["wealths"] else [],
                    "selected": selected,
                }
    except OSError as exc:
        raise ReplayMismatch(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ReplayMismatch(f"{path} line {reader.line_num}: {exc}") from None
    return trials


def replay_check(run_dir: str | Path) -> int:
    """Re-run the engine from the logged risks and compare wealths and
    selections at printed precision.  Returns the number of rounds checked;
    raises ReplayMismatch on the first disagreement."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    plan = parse_config(manifest["config"])
    trials = _parse_rounds_csv(run_dir, bool(plan.cfg.extra_metrics))
    if not trials:
        raise ReplayMismatch("rounds.csv holds no rounds")
    checked = 0
    for trial, rows in sorted(trials.items()):
        source = ReplaySource(rows)
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
