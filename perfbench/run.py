"""ecalib benchmark: Monte Carlo throughput, oracle-round latency and replay.

Run from the repository root:

    python3 perfbench/run.py --workload narrow --seed 7 --seconds 55 --trace 0

Workloads and metrics are listed in BENCHMARK.json.  ``--trace 0`` measures
the end-to-end metrics with tracing off, repeating cycles for ``--seconds``;
``--trace 1`` makes a fixed number of traced passes (``--seconds`` does not
apply) and reports the per-layer metrics.  Spans go to
``.perfbench_work/<workload>/spans.npy``.  Lines before the last describe the run: the
environment, timing percentiles with sample counts, the estimates digest,
``failed_ratio`` and any failed check.  The last line is one JSON object with
the keys correct, attempted, failed and metrics.  The exit status is 0 only
when every check passed; it is 2 when the checkout holds no ecalib sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecalib" / "__init__.py").is_file():
        print(f"perfbench: no ecalib sources under {SRC}", file=sys.stderr)
        return 2
    # The benchmark measures this checkout's sources, never an installed copy;
    # child processes (pool workers, the oracle, set-up probes) inherit the path.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import ecalib

    if Path(ecalib.__file__).resolve().parent != SRC / "ecalib":
        print(f"perfbench: imported ecalib from {ecalib.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    result, report = harness.run(make, args.seed, args.seconds, bool(args.trace))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    out_dir = harness.WORK / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=2), encoding="utf-8")
    for key, value in report.items():
        if key != "series":
            print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
