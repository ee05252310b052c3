"""Reference oracle speaking the line protocol, for tests and smoke runs.

Answers each tested id with a Bernoulli draw around its configured mean
(deterministic in --seed, round, and id) or with the mean itself under
--dist point.  The --misbehave flag makes it violate the protocol on round 2,
which the client tests use to exercise every abort path.

Run as: python -m ecalib.demo_oracle --means 0.1,0.3,0.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .rng import unit_uniform


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _means(text: str) -> list[float]:
    """The --means argument: comma-separated numbers in [0, 1]."""
    try:
        means = [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}") from None
    if not all(0.0 <= m <= 1.0 for m in means):
        raise argparse.ArgumentTypeError(f"means must lie in [0, 1]: {text!r}")
    return means


def _request_error(msg, n: int) -> str | None:
    """Why ``msg`` is not a test request for ids in range(n), or None."""
    if not isinstance(msg, dict):
        return f"not a JSON object: {msg!r}"
    if msg.get("type") != "test":
        return f"unexpected message type {msg.get('type')!r}"
    t = msg.get("round")
    if type(t) is not int:
        return f"round must be an integer: {t!r}"
    ids = msg.get("ids")
    if type(ids) is not list or not all(type(i) is int and 0 <= i < n for i in ids):
        return f"ids must be a list of integers in range({n}): {ids!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--means", type=_means, required=True, help="comma-separated means in [0, 1], one per candidate"
    )
    parser.add_argument("--dist", choices=["bernoulli", "point"], default="bernoulli")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--misbehave",
        choices=["none", "short", "range", "silent", "die", "garbage", "wrong_round"],
        default="none",
        help="violate the protocol on round 2",
    )
    args = parser.parse_args(argv)
    means = args.means

    hello = sys.stdin.readline()
    if not hello:
        return 1
    try:
        msg = json.loads(hello)
    except json.JSONDecodeError:
        _emit({"type": "error", "message": "hello was not JSON"})
        return 1
    if not isinstance(msg, dict) or msg.get("type") != "hello":
        _emit({"type": "error", "message": "expected hello"})
        return 1
    if msg.get("n_candidates") != len(means):
        _emit({"type": "error", "message": "candidate count mismatch"})
        return 1
    _emit({"type": "hello", "stateless": True})

    for line in sys.stdin:
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            _emit({"type": "error", "message": f"bad request: {line!r}"})
            return 1
        problem = _request_error(msg, len(means))
        if problem is not None:
            _emit({"type": "error", "message": f"bad request: {problem}"})
            return 1
        t = msg["round"]
        ids = msg["ids"]
        if args.misbehave != "none" and t == 2:
            if args.misbehave == "short":
                _emit({"type": "risks", "round": t, "values": []})
                continue
            if args.misbehave == "range":
                _emit({"type": "risks", "round": t, "values": [1.2 for _ in ids]})
                continue
            if args.misbehave == "silent":
                time.sleep(3600)
            if args.misbehave == "die":
                return 1
            if args.misbehave == "garbage":
                sys.stdout.write("not json at all\n")
                sys.stdout.flush()
                continue
            if args.misbehave == "wrong_round":
                _emit({"type": "risks", "round": t + 7, "values": [0.5 for _ in ids]})
                continue
        values = []
        for i in ids:
            m = means[i]
            if args.dist == "point":
                values.append(m)
            else:
                u = unit_uniform(args.seed, t, i)
                values.append(1.0 if u >= 1.0 - m else 0.0)
        _emit({"type": "risks", "round": t, "values": values})
    return 0


if __name__ == "__main__":
    sys.exit(main())
