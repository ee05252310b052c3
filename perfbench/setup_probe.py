"""One set-up, timed from outside by the benchmark's ``setup_s``.

A fresh interpreter imports ``ecalib``, builds and parses the workload's
configs, and on ``narrow`` spawns the oracle and completes the hello
handshake.  It then prints ``ready`` and exits.

Run as: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecalib import oracle, runio  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: int) -> int:
    w = WORKLOADS[name](seed)
    runio.parse_config(w.mc_config)
    plan = runio.parse_config(w.logged_config)
    if w.oracle:
        with oracle.oracle_client(plan.source.command, plan.cfg, plan.source.timeout):
            print("ready", flush=True)
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
