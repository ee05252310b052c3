"""Config files, run directories, and replay verification.

A run directory holds:

- ``manifest.json``: config echo, tool version, rng mixer id, base seed,
  timestamps, and (single runs) the stop reason.  The config echo re-parses
  to the exact config that ran.
- ``rounds.csv``: one row per round of the run, trial 0, with columns
  trial, t, tested_ids, risks, wealths, selected_ids.  Multi-valued cells are
  semicolon-joined (metric values within one id joined by '|'); floats carry
  17 significant digits so replay comparisons are exact at printed precision.
- ``summary.csv``: per-round curves t, tpr, fwer, fdr, mean_set_size.
- ``final.json``: the headline numbers (selected set / stop reason / T for
  single runs; metric estimates and the pass verdict for validation runs).

A single run's observer, ``RunLog``, keeps per round only what rounds.csv and
summary.csv need; ``write_run`` writes both after the run, so no row is
formatted inside a round.  Replay checks each round's cells as it ends.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import enum
import functools
import itertools
import json
import math
from pathlib import Path
from typing import Sequence, Union, get_args, get_origin, get_type_hints

from . import __version__
from .core import POSITIVE, AcquisitionSpec, CalibrationConfig, ErrorMetric, check_domains, validate_config
from .errors import EcalibError, InvalidConfig, OracleError
from .oracle import DEFAULT_TIMEOUT, command_argv
from .orchestrator import RunResult, run_altt
from .rng import MIXER_ID
from .simharness import Bernoulli, Beta, CompositeSyntheticSpec, PointMass, SyntheticSpec, derive_reliable


class ReplayMismatch(EcalibError):
    """A run directory could not be read back, or its log not reproduced."""


@dataclasses.dataclass(frozen=True)
class OracleSpec:
    command: str
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        check_domains(self, {"command": (str, "a string", _splits, "must split, shell-style, into at least one word"),
                             "timeout": POSITIVE})


def _splits(command: str) -> bool:
    try:
        return bool(command_argv(command))
    except OracleError:
        return False


Source = Union[SyntheticSpec, CompositeSyntheticSpec, OracleSpec]


@dataclasses.dataclass(frozen=True)
class RunPlan:
    cfg: CalibrationConfig
    source: Source
    sweep: dict[str, list]


def fmt17(x: float) -> str:
    return "%.17g" % x


# A config document is the config dataclasses written out: each JSON object
# holds the fields of its class, and each class checks its fields' domains.
# Written by hand are only the tags of its unions (each tag key, what its
# value names, and the class of each value) and the checks across fields.
_TAGS = {
    "kind": ("source kind", {"synthetic": SyntheticSpec, "composite": CompositeSyntheticSpec, "oracle": OracleSpec}),
    "dist": ("distribution", {"bernoulli": Bernoulli, "beta": Beta, "point": PointMass}),
}
_TAG_OF = {cls: (key, tag) for key, (_, classes) in _TAGS.items() for tag, cls in classes.items()}


@dataclasses.dataclass(frozen=True)
class _Document:
    """The keys of a config document besides the config's fields; two restate
    settings: the rule implies the metric, batch_size is acquisition's default.
    literal_set is read, never written: run directories from before the
    step-up rules selected only their closure state it."""

    error_metric: ErrorMetric
    source: Source
    batch_size: int = AcquisitionSpec.batch_size
    sweep: dict | None = None
    literal_set: bool = False


# The two rule/metric mismatches, named by the metric the config states.
_METRIC_RULES = {ErrorMetric.FWER: "bonferroni or fixed_sequence", ErrorMetric.FDR: "bh, by, or ebh"}

# Sweep axes in grid order, each with the path of the config field it sets:
# the cells of cmd_sweep are their product.
SWEEP_AXES = {"strategy": "betting.strategy", "alpha": "alpha", "delta": "delta", "epsilon": "acquisition.epsilon"}

_REQUIRED, _OBJECT = object(), object()
_JSON_TYPE = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object", list: "list"}


@functools.cache
def _schema(cls) -> dict:
    """name -> (reader, default) of each field of dataclass cls, in order:
    the _reader of its annotated type, and its default, else _OBJECT for a
    spec (a missing key reads as {}, so that the spec's own defaults apply)
    and _REQUIRED for any other type."""
    kinds = get_type_hints(cls)
    return {
        f.name: (_reader(kinds[f.name]), f.default if f.default is not dataclasses.MISSING
                 else _OBJECT if dataclasses.is_dataclass(kinds[f.name]) else _REQUIRED)
        for f in dataclasses.fields(cls)
    }


@functools.cache
def _reader(kind):
    """The function ``read(value, name, bad)`` that returns value
    as ``kind`` if it has the matching JSON shape, else None with a violation
    in bad.  An enum takes one of its values, a spec its object, a tuple a
    list, an optional also null, and a tagged union the object of the member
    its tag names."""
    args = get_args(kind)
    if kind in _JSON_TYPE:
        return functools.partial(_check, kind)
    if dataclasses.is_dataclass(kind):
        return functools.partial(_spec_from_dict, kind)
    if isinstance(kind, enum.EnumMeta):
        def read(value, name, bad):
            try:
                return kind(value)
            except ValueError:
                bad.append(f"{name} must be one of: {', '.join(e.value for e in kind)}")
    elif get_origin(kind) is tuple:
        item = _reader(args[0])

        def read(value, name, bad):
            if _check(list, value, name, bad) is not None:
                return tuple(item(v, f"{name}[{j}]", bad) for j, v in enumerate(value))
    elif type(None) in args:
        inner = _reader(Union[tuple(a for a in args if a is not type(None))])

        def read(value, name, bad):
            return None if value is None else inner(value, name, bad)
    else:
        key = _TAG_OF[args[0]][0]
        noun, classes = _TAGS[key]

        def read(value, name, bad):
            if not isinstance(value, dict):
                return _check(dict, value, name, bad)
            tag = value.get(key)
            if not isinstance(tag, str) or classes.get(tag) not in args:
                bad.append(f"unknown {noun} {tag!r} at {name}")
                return None
            return _spec_from_dict(classes[tag], value, name, bad)
    return read


def _check(kind, value, name: str, bad: list[str]):
    """value if it has the JSON type kind, else None with a violation in bad.
    An integer is a valid float (returned as one) unless it is too large for
    one; a boolean is only a boolean."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        bad.append(f"{name} must be a JSON {_JSON_TYPE[kind]}, got {value!r}")
        return None
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        bad.append(f"{name} is an integer too large for a float")
        return None


def _spec_from_dict(cls, d, name: str, bad: list[str]):
    """cls from its JSON object, each field read by its type's reader; a
    missing field takes its default.  None, with the violations in bad,
    unless every key is a field or the tag of cls, and every field is valid
    and cls accepts them (each violation of cls's own checks led by the
    object's path)."""
    if not isinstance(d, dict):
        return _check(dict, d, name, bad)
    n_bad = len(bad)
    prefix = f"{name}." if name else ""
    schema = _schema(cls)
    tag = _TAG_OF.get(cls, (None,))[0]
    bad += [f"unknown config field {prefix + key!r}" for key in d if key not in schema and key != tag]
    values = {}
    for key, (read, default) in schema.items():
        path = prefix + key
        if key in d or default is _OBJECT:
            v = read(d.get(key, {}), path, bad)
        elif default is _REQUIRED:
            bad.append(f"missing config field {path!r}")
            v = None
        else:
            v = default
        values[key] = v
    if len(bad) > n_bad:
        return None
    try:
        return cls(**values)
    except InvalidConfig as exc:
        bad += [prefix + m for m in exc.violations]
        return None


@functools.cache
def _spec_fields(kind):
    """The tag entry (empty if it has none) and the field names, in order, of
    a spec class; None for any other class.  A config holds many values of a
    few classes, so each is looked up once."""
    if not dataclasses.is_dataclass(kind):
        return None
    tag = _TAG_OF.get(kind)
    return ({tag[0]: tag[1]} if tag else {}), tuple(_schema(kind))


def _to_json(value):
    """value as JSON: a spec as its tag, if it has one, and every field in
    order (None as null); an enum member by value; a tuple as a list."""
    spec = _spec_fields(type(value))
    if spec is not None:
        out = spec[0].copy()
        for key in spec[1]:
            out[key] = _to_json(getattr(value, key))
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(plan: RunPlan) -> dict:
    """The config document that parse_config reads back to plan."""
    doc = _to_json(_Document(plan.cfg.error_metric, plan.source, plan.cfg.acquisition.batch_size, plan.sweep or None))
    del doc["literal_set"]
    return {**_to_json(plan.cfg), **doc}


def _replace_path(spec, path: list[str], value, name: str, bad: list[str]):
    """spec with the field at path set to value, read by the field's reader."""
    key, *rest = path
    read = _schema(type(spec))[key][0]
    new = _replace_path(getattr(spec, key), rest, value, name, bad) if rest else read(value, name, bad)
    return dataclasses.replace(spec, **{key: new})


def sweep_value(cfg: CalibrationConfig, axis: str, value, name: str | None = None) -> CalibrationConfig:
    """cfg with the field that a sweep axis names set to value; InvalidConfig,
    calling value ``name``, unless value has the JSON type of that field and
    the config stays valid."""
    name = name or f"sweep.{axis}"
    bad: list[str] = []
    cfg = _replace_path(cfg, SWEEP_AXES[axis].split("."), value, name, bad)
    if bad:
        raise InvalidConfig(bad)
    try:
        return validate_config(cfg)
    except InvalidConfig as exc:
        raise InvalidConfig([f"{name} {value!r}: {m}" for m in exc.violations]) from None


def parse_config(d: dict) -> RunPlan:
    """Validate and convert one JSON config document into a RunPlan.

    Flags must be JSON booleans, counts and the seed JSON integers, rates
    JSON numbers.  Each InvalidConfig lists every violation of its stage:
    types and domains, then the checks across fields and validate_config,
    then the sweep values (each put into the config), so that no sweep cell
    fails after others have run.
    """
    if not isinstance(d, dict):
        raise InvalidConfig(["config must be a JSON object"])
    bad: list[str] = []
    own = _schema(_Document)
    doc = _spec_from_dict(_Document, {k: v for k, v in d.items() if k in own}, "", bad)
    rest = {k: v for k, v in d.items() if k not in own}
    acquisition = rest.get("acquisition", {})
    if doc and isinstance(acquisition, dict) and "batch_size" not in acquisition:
        rest["acquisition"] = {**acquisition, "batch_size": doc.batch_size}
    cfg = _spec_from_dict(CalibrationConfig, rest, "", bad)
    sweep = (doc.sweep if doc else None) or {}
    if not set(sweep) <= set(SWEEP_AXES):
        bad.append(f"sweep axes must be a subset of {sorted(SWEEP_AXES)}")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            bad.append(f"sweep.{axis} must be a nonempty JSON list")
    if bad:
        raise InvalidConfig(bad)

    if isinstance(doc.source, OracleSpec):
        if cfg.extra_metrics:
            bad.append("oracle sources support single-metric configs only")
    else:
        if doc.source.n != cfg.n_candidates:
            bad.append("source arm count disagrees with n_candidates")
        if len(doc.source.metrics) != len(cfg.requirements):
            bad.append("source metric count disagrees with config")
    if doc.error_metric is not cfg.error_metric:
        bad.append(f"rule/metric mismatch: {doc.error_metric.name} requires {_METRIC_RULES[doc.error_metric]}")
    if cfg.acquisition.batch_size != doc.batch_size:
        bad.append("acquisition.batch_size disagrees with config batch_size")
    if doc.literal_set and cfg.error_metric is ErrorMetric.FDR:
        bad.append(f"literal_set true under {cfg.selection_rule.value} is refused: the literal step-up set voids "
                   "FDR control, and the closure is what runs (set literal_set false or drop it)")
    try:
        validate_config(cfg)
    except InvalidConfig as exc:
        bad += exc.violations
    if bad:
        raise InvalidConfig(bad)
    for axis, values in sweep.items():
        for j, v in enumerate(values):
            try:
                sweep_value(cfg, axis, v, f"sweep.{axis}[{j}]")
            except InvalidConfig as exc:
                bad += exc.violations
    if bad:
        raise InvalidConfig(bad)
    return RunPlan(cfg=cfg, source=doc.source, sweep=dict(sweep))


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
    # Compact: with an indent, json runs its pure-Python encoder.
    (out_dir / "manifest.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")


def read_manifest(run_dir: Path) -> dict:
    path = Path(run_dir) / "manifest.json"
    doc = _read_json(path, ReplayMismatch)
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ReplayMismatch(f"{path} holds no config object")
    return doc


ROUNDS_HEADER = ["trial", "t", "tested_ids", "risks", "wealths", "selected_ids"]
SUMMARY_HEADER = ["t", "tpr", "fwer", "fdr", "mean_set_size"]


@functools.lru_cache(maxsize=16)
def _joined(spec: str, n: int) -> str:
    """The format of n ';'-joined values, each formatted by spec; one %
    operation formats a whole cell."""
    return ";".join([spec] * n)


def _ids(ids) -> str:
    return _joined("%d", len(ids)) % tuple(ids)


def _risk_cell(risks_row, multi_metric: bool) -> str:
    if multi_metric:
        return ";".join("|".join(fmt17(x) for x in row) for row in risks_row)
    return ";".join(fmt17(r) for r in risks_row)


def _wealth_cell(wealths) -> str:
    return _joined("%.17g", len(wealths)) % tuple(wealths)


class _SetCell:
    """The selected_ids cell of a certified set, formatted once per set
    object: the engine hands on one frozenset until its set changes."""

    def __init__(self):
        self.selected, self.cell = None, ""

    def __call__(self, selected: frozenset[int]) -> str:
        if selected is not self.selected:
            self.selected, self.cell = selected, _ids(sorted(selected))
        return self.cell


class RunLog:
    """``run_altt``'s observer for a logged run: per round the tested ids,
    their risks and wealths, and the certified set (one frozenset until the
    set changes), for ``write_run``."""

    def __init__(self):
        self.rows: list[tuple] = []  # (tested ids, risks row, their wealths)
        self.sets: list[frozenset[int]] = []

    def __call__(self, t: int, tested, risks, wealth, anytime_p, certified: frozenset[int]) -> None:
        self.rows.append((tested, risks, [wealth[i] for i in tested]))
        self.sets.append(certified)


def write_rounds_csv(out_dir: Path, log: RunLog, multi_metric: bool) -> None:
    # No cell holds anything but digits, '.', 'e', '+', '-', 'inf', ';' and
    # '|', so csv.writer quotes none, and replay splits each line on ','.
    with open(out_dir / "rounds.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ROUNDS_HEADER)
        set_cell = _SetCell()
        for t, ((tested, risks, wealths), selected) in enumerate(zip(log.rows, log.sets), 1):
            w.writerow([0, t, _ids(tested), _risk_cell(risks, multi_metric), _wealth_cell(wealths), set_cell(selected)])


def write_summary_csv(
    out_dir: Path,
    tpr: Sequence[float],
    fwer: Sequence[float],
    fdr: Sequence[float],
    sizes: Sequence[float],
) -> None:
    (out_dir / "summary.csv").write_text(_summary_text(tpr, fwer, fdr, sizes), encoding="utf-8", newline="")


def _summary_text(tpr, fwer, fdr, sizes) -> str:
    """summary.csv as csv.writer would write it: no cell needs quoting, and
    each row ends in '\r\n'."""
    row = "%d,%.17g,%.17g,%.17g,%.17g\r\n"
    curves = zip(range(1, len(sizes) + 1), tpr, fwer, fdr, sizes)
    return ",".join(SUMMARY_HEADER) + "\r\n" + "".join([row % values for values in curves])


def _read_rows(path: Path, header: list[str], error) -> list[list[str]]:
    """The rows below the header of a CSV file as the writers here write it:
    UTF-8 text, one line per row, each split on ','.  error names the file,
    and the line of a row without a cell per header column."""
    try:
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise error(f"{path} is not a UTF-8 CSV file: {exc}") from None
    if rows[:1] != [header]:
        raise error(f"{path}: header {rows[0] if rows else None} != {header}")
    for n, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise error(f"{path} line {n}: {len(row)} fields, not {len(header)}")
    return rows[1:]


def read_summary_csv(run_dir: Path) -> list[list[str]]:
    """The rows of run_dir/summary.csv below its header; EcalibError names
    the file (and line) when it cannot be read as one."""
    return _read_rows(run_dir / "summary.csv", SUMMARY_HEADER, EcalibError)


def realized_curves(sets: Sequence[frozenset[int]], reliable: frozenset[int] | None):
    """Single-trial curves over a run's certified sets, one per round;
    ground-truth columns are NaN when no reliable set is known (external
    oracle runs)."""
    sizes = [float(len(sel)) for sel in sets]
    if reliable is None:
        return [math.nan] * len(sizes), [math.nan] * len(sizes), [math.nan] * len(sizes), sizes
    hits = [len(sel & reliable) for sel in sets]
    tpr = [h / len(reliable) if reliable else math.nan for h in hits]
    fwer = [1.0 if h < size else 0.0 for h, size in zip(hits, sizes)]
    fdr = [(size - h) / size if size else 0.0 for h, size in zip(hits, sizes)]
    return tpr, fwer, fdr, sizes


def write_final_json(out_dir: Path, doc: dict) -> None:
    (out_dir / "final.json").write_text(_final_text(doc), encoding="utf-8")


def _final_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _single_run_outputs(plan: RunPlan, result: RunResult, log: RunLog) -> tuple[tuple, dict]:
    """The curves of one logged run's summary.csv and its final.json
    document; the summary's ground truth is unknown for an oracle source."""
    reliable = None if isinstance(plan.source, OracleSpec) else derive_reliable(plan.cfg, plan.source)
    final = {"selected": sorted(result.selected), "stop_reason": result.stop_reason.value,
             "T": result.T, "n_queries": result.n_queries}
    return realized_curves(log.sets, reliable), final


def write_run(out_dir: Path, plan: RunPlan, result: RunResult, log: RunLog) -> None:
    """rounds.csv, summary.csv and final.json of one logged run, from its
    result and log."""
    write_rounds_csv(out_dir, log, bool(plan.cfg.extra_metrics))
    curves, final = _single_run_outputs(plan, result, log)
    write_summary_csv(out_dir, *curves)
    write_final_json(out_dir, final)


def _same_bytes(logged: Path, replayed: str) -> None:
    """ReplayMismatch naming the first line where the logged file and the
    replayed text differ."""
    try:
        old = logged.read_bytes().splitlines(keepends=True)
    except OSError as exc:
        raise ReplayMismatch(f"cannot read {logged}: {exc.strerror}") from None
    new = replayed.encode("utf-8").splitlines(keepends=True)
    for n, (a, b) in enumerate(itertools.zip_longest(old, new, fillvalue=b""), 1):
        if a != b:
            raise ReplayMismatch(f"{logged} line {n}: {a!r} != replayed {b!r}")


class ReplaySource:
    """Serves the risks logged in rounds.csv back to the engine, verifying
    that the engine asks for exactly the logged ids in each round."""

    reads_token = False

    def __init__(self, path: Path, rows: list[list[str]], multi_metric: bool):
        self.path, self.rows, self.multi_metric = path, rows, multi_metric

    def query(self, round_index: int, ids: Sequence[int], token: str):
        if round_index > len(self.rows):
            raise ReplayMismatch(f"{self.path}: round {round_index} was not logged")
        cells = self.rows[round_index - 1]
        where = f"{self.path} line {round_index + 1}"
        if _ids(ids) != cells[2]:
            raise ReplayMismatch(f"{where}: engine asked for ids {_ids(ids)}, log has {cells[2]}")
        try:
            if self.multi_metric:
                return [tuple(map(float, risks.split("|"))) for risks in cells[3].split(";")]
            return list(map(float, cells[3].split(";")))
        except ValueError as exc:
            raise ReplayMismatch(f"{where}: {exc}") from None


def _parse_rounds_csv(run_dir: Path) -> list[list[str]]:
    """The six cells of each row of run_dir/rounds.csv; row t - 1 is round t
    of trial 0.  ReplayMismatch names the file, and the line of a bad row."""
    path = run_dir / "rounds.csv"
    rows = _read_rows(path, ROUNDS_HEADER, ReplayMismatch)
    for t, row in enumerate(rows, 1):
        if row[:2] != ["0", str(t)]:
            raise ReplayMismatch(f"{path} line {t + 1}: trial and t {row[:2]}, not ['0', '{t}']")
    return rows


def _first_difference(name: str, got: str, logged: str, tested: str) -> str:
    """The first entry where two ';'-separated cells differ: its position
    and, in wealths, its candidate id; or the entry counts, when one cell is
    a prefix of the other."""
    g, lg = (cell.split(";") if cell else [] for cell in (got, logged))
    for j, (a, b) in enumerate(zip(g, lg)):
        if a != b:
            where = f" (id {tested.split(';')[j]})" if name == "wealths" else ""
            return f"{name} entry {j}{where}: {a} != logged {b}"
    return f"{name}: {len(g)} entries != logged {len(lg)}"


def replay_check(run_dir: str | Path, manifest: dict | None = None) -> int:
    """Re-run trial 0 from the logged risks: each round's wealths and
    selected_ids cells must equal the log's, checked as the round ends, and
    summary.csv and final.json, rendered in memory, the run directory's bytes.
    Returns the number of rounds; ReplayMismatch names the first difference,
    and no round after it runs.  Writes nothing to run_dir.  ``manifest`` is
    run_dir's manifest.json, when the caller has read it."""
    run_dir = Path(run_dir)
    plan = parse_config((read_manifest(run_dir) if manifest is None else manifest)["config"])
    path, rows = run_dir / "rounds.csv", _parse_rounds_csv(run_dir)
    log = RunLog()  # keeps only the certified sets, for summary.csv
    set_cell = _SetCell()

    def check(t: int, tested, risks, wealth, anytime_p, certified: frozenset[int]) -> None:
        row = rows[t - 1]  # ReplaySource has served round t from it
        cells = (_wealth_cell([wealth[i] for i in tested]), set_cell(certified))
        for name, got, logged in zip(ROUNDS_HEADER[4:], cells, row[4:]):
            if got != logged:
                raise ReplayMismatch(f"{path} line {t + 1}: {_first_difference(name, got, logged, row[2])}")
        log.sets.append(certified)

    result = run_altt(plan.cfg, ReplaySource(path, rows, bool(plan.cfg.extra_metrics)), trial=0, observer=check)
    if result.T != len(rows):
        raise ReplayMismatch(f"{path}: replay produced {result.T} rounds, log has {len(rows)}")
    curves, final = _single_run_outputs(plan, result, log)
    _same_bytes(run_dir / "summary.csv", _summary_text(*curves))
    _same_bytes(run_dir / "final.json", _final_text(final))
    return len(rows)
