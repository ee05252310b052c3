"""Command-line entry points.

Subcommands:
  simulate   one synthetic run, full per-round log
  validate   M-trial Monte Carlo, error-rate estimates and a pass/fail gate
  calibrate  one run against an external oracle command
  report     collect summary curves from run directories into one CSV
  sweep      cartesian grid over {epsilon, delta, alpha, strategy}

Exit status: 0 on success (and a passing validate), 1 on failure or any
config/protocol error, 2 when report finds no runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import logging
import math
import sys
from pathlib import Path

from .core import ErrorMetric
from .errors import EcalibError
from .oracle import command_argv, oracle_client
from .orchestrator import run_altt
from .runio import (
    SUMMARY_HEADER,
    SWEEP_AXES,
    OracleSpec,
    RunLog,
    RunPlan,
    config_to_dict,
    load_config,
    read_manifest,
    read_summary_csv,
    replay_check,
    sweep_value,
    utc_now,
    write_final_json,
    write_manifest,
    write_run,
    write_summary_csv,
)
from .simharness import MAX_TRIALS, check_t_max, run_trials

logger = logging.getLogger("ecalib")

# sweep.csv columns after the axes: fields of each cell's MetricsSummary.
SWEEP_COLUMNS = ("fwer_hat", "fdr_hat_unconditional", "fdr_hat_conditional", "tpr_hat", "mean_stop_round", "mean_queries")


def _prepare_out(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EcalibError(f"--out {path!r}: cannot create directory: {exc.strerror}") from None
    return out


def _override_seed(plan: RunPlan, seed: int | None) -> RunPlan:
    if seed is None:
        return plan
    if not 0 <= seed < 2**64:
        raise EcalibError(f"--seed must be in [0, 2**64), got {seed}")
    return RunPlan(dataclasses.replace(plan.cfg, seed=seed), plan.source, plan.sweep)


def _require_synthetic(plan: RunPlan, command: str) -> None:
    if isinstance(plan.source, OracleSpec):
        raise EcalibError(f"{command} needs a synthetic source (ground truth required)")


def _monte_carlo_plan(args, command: str) -> RunPlan:
    """The plan of validate and sweep, with --trials, --workers and t_max
    checked before anything is made."""
    for flag, value in (("--trials", args.trials), ("--workers", args.workers)):
        if value < 1:
            raise EcalibError(f"{flag} must be >= 1, got {value}")
    if args.trials > MAX_TRIALS:
        raise EcalibError(f"--trials must be <= {MAX_TRIALS}, got {args.trials}")
    plan = _override_seed(load_config(args.config), args.seed)
    _require_synthetic(plan, command)
    check_t_max(plan.cfg.t_max)
    return plan


def _monte_carlo(cfg, source, args):
    """``--trials`` trials of cfg on ``--workers`` processes (validate, sweep)."""
    return run_trials(cfg, source, M=args.trials, base_seed=cfg.seed, workers=args.workers)


def _write_single_run(command: str, out: Path, plan: RunPlan, started: str, result, log: RunLog) -> int:
    """The run directory of one logged run (simulate, calibrate), once it has ended."""
    write_manifest(out, plan, started=started, finished=utc_now(), stop_reason=result.stop_reason.value)
    write_run(out, plan, result, log)
    logger.info(
        "%s: stopped at t=%d (%s), selected %s", command, result.T, result.stop_reason.value, sorted(result.selected)
    )
    return 0


def cmd_simulate(args) -> int:
    plan = _override_seed(load_config(args.config), args.seed)
    _require_synthetic(plan, "simulate")
    out = _prepare_out(args.out)
    started = utc_now()
    source = plan.source.make_source(plan.cfg.seed, 0)
    log = RunLog()
    result = run_altt(plan.cfg, source, trial=0, observer=log)
    return _write_single_run("simulate", out, plan, started, result, log)


def cmd_validate(args) -> int:
    plan = _monte_carlo_plan(args, "validate")
    out = _prepare_out(args.out)
    cfg = plan.cfg
    started = utc_now()
    summary = _monte_carlo(cfg, plan.source, args)
    if cfg.error_metric is ErrorMetric.FWER:
        estimate_name, estimate = "fwer_hat", summary.fwer_hat
    else:
        estimate_name, estimate = "fdr_hat_unconditional", summary.fdr_hat_unconditional
    margin = 3.0 * math.sqrt(cfg.delta * (1.0 - cfg.delta) / args.trials)
    passed = estimate <= cfg.delta + margin
    write_manifest(out, plan, started=started, finished=utc_now(), trials=args.trials)
    write_summary_csv(out, summary.tpr_curve, summary.fwer_curve, summary.fdr_curve, summary.set_size_curve)
    write_final_json(
        out,
        {
            "trials": summary.M,
            "fwer_hat": summary.fwer_hat,
            "fdr_hat_conditional": summary.fdr_hat_conditional,
            "fdr_hat_unconditional": summary.fdr_hat_unconditional,
            "tpr_hat": summary.tpr_hat,
            "mean_stop_round": summary.mean_stop_round,
            "mean_queries": summary.mean_queries,
            "margins": summary.margins,
            "stop_reason_counts": summary.stop_reason_counts,
            "gate": {
                "metric": estimate_name,
                "estimate": estimate,
                "delta": cfg.delta,
                "margin_3sigma": margin,
                "pass": passed,
            },
        },
    )
    logger.info(
        "validate: %s=%.4f vs delta=%.3f + margin=%.4f -> %s",
        estimate_name,
        estimate,
        cfg.delta,
        margin,
        "PASS" if passed else "FAIL",
    )
    return 0 if passed else 1


def cmd_calibrate(args) -> int:
    plan = load_config(args.config)
    if not isinstance(plan.source, OracleSpec):
        raise EcalibError("calibrate needs an oracle source")
    command = plan.source.command if args.oracle is None else args.oracle
    command_argv(command, "--oracle")  # the config's command passed this check at parse time
    timeout = args.timeout if args.timeout is not None else plan.source.timeout
    if not (math.isfinite(timeout) and timeout > 0.0):
        raise EcalibError(f"--timeout must be finite and > 0, got {args.timeout}")
    # The client starts from the plan, so the manifest records what ran.
    plan = dataclasses.replace(plan, source=OracleSpec(command, timeout))
    out = _prepare_out(args.out)
    started = utc_now()
    log = RunLog()
    with oracle_client(plan.source.command, plan.cfg, plan.source.timeout) as source:
        result = run_altt(plan.cfg, source, trial=0, observer=log)
    return _write_single_run("calibrate", out, plan, started, result, log)


def cmd_report(args) -> int:
    root = Path(args.input)
    candidates = [root] if (root / "summary.csv").exists() else sorted(root.glob("*"))
    run_dirs = [run for run in candidates if (run / "summary.csv").exists()]
    if not run_dirs:
        print("no runs found", file=sys.stderr)
        return 2
    rows = [[run.name, *row] for run in run_dirs for row in read_summary_csv(run)]
    try:
        sink = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        raise EcalibError(f"--out {args.out!r}: {exc.strerror}") from None
    try:
        w = csv.writer(sink)
        w.writerow(["run", *SUMMARY_HEADER])
        w.writerows(rows)
    finally:
        if args.out:
            sink.close()
    return 0


def cmd_sweep(args) -> int:
    plan = _monte_carlo_plan(args, "sweep")
    if not plan.sweep:
        raise EcalibError("config has no sweep block")
    out = _prepare_out(args.out)
    started = utc_now()
    # An axis the sweep leaves out keeps the value of its field in the config.
    echo = config_to_dict(plan)
    defaults = {axis: functools.reduce(dict.get, path.split("."), echo) for axis, path in SWEEP_AXES.items()}
    rows = []
    for cell in itertools.product(*(plan.sweep.get(axis, [defaults[axis]]) for axis in SWEEP_AXES)):
        cfg = plan.cfg
        for axis, value in zip(SWEEP_AXES, cell):
            cfg = sweep_value(cfg, axis, value)
        summary = _monte_carlo(cfg, plan.source, args)
        rows.append([*cell, *(getattr(summary, column) for column in SWEEP_COLUMNS)])
        logger.info(
            "sweep cell strategy=%s alpha=%s delta=%s epsilon=%s: fwer=%.4f tpr=%.4f",
            *cell, summary.fwer_hat, summary.tpr_hat,
        )
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([*SWEEP_AXES, *SWEEP_COLUMNS])
        w.writerows(rows)
    write_manifest(out, plan, started=started, finished=utc_now(), trials=args.trials)
    return 0


def cmd_replay(args) -> int:
    manifest = read_manifest(Path(args.input))
    checked = replay_check(args.input, manifest)
    logger.info("replay: %d rounds reproduced exactly (run of %s)", checked, manifest.get("started_utc"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecalib", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one synthetic run with a full round log")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="Monte Carlo error-rate estimation and gate")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("calibrate", help="one run against an external oracle command")
    p.add_argument("--config", required=True)
    p.add_argument("--oracle", default=None, help="override the config's oracle command")
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="collect summary curves into one CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="grid over epsilon/delta/alpha/strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="verify a run directory reproduces its own log")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EcalibError as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
