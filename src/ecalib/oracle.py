"""External risk-oracle subprocess client.

Wire protocol: newline-delimited JSON over the child's stdin/stdout, UTF-8,
one record per line.

- client -> oracle  {"type": "hello", "n_candidates": N, "alpha": a, "direction": "risk_below"}
- oracle -> client  {"type": "hello", ...}            (extra keys are ignored)
- client -> oracle  {"type": "test", "round": t, "ids": [..], "token": "<16 hex>"}
- oracle -> client  {"type": "risks", "round": t, "values": [..]}
- either direction  {"type": "error", "message": "..."}   aborts the run

Requests and answers alternate strictly; every answer must echo the round it
replies to, carry exactly one value in [0, 1] per requested id, and arrive
within the timeout of its request, writing the request included.  Any
deviation aborts with a typed error carrying the offending record; values are
never clamped, since silently repairing an out-of-range risk would void the
statistical guarantee.
"""

from __future__ import annotations

import json
import os
import queue
import selectors
import shlex
import subprocess
import threading
import time
from typing import Sequence

from .core import CalibrationConfig
from .errors import (
    InvalidConfig,
    OracleError,
    OracleMalformed,
    OracleOutOfRangeRisk,
    OracleProcessExit,
    OracleTimeout,
)

_EOF = object()

# Seconds to wait for each answer unless the config or caller says otherwise.
DEFAULT_TIMEOUT = 60.0


def command_argv(command: str | Sequence[str], name: str = "oracle command") -> list[str]:
    """The argv of an oracle command; OracleError, calling the command
    ``name``, unless it splits into at least one word."""
    try:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
    except ValueError as exc:
        raise OracleError(f"{name} {command!r} cannot be split: {exc}") from None
    if not argv:
        raise OracleError(f"{name} {command!r} names no program")
    return argv


class OracleClient:
    """RiskSource backed by a line-protocol subprocess."""

    def __init__(self, command: str | Sequence[str], cfg: CalibrationConfig, timeout: float = DEFAULT_TIMEOUT):
        if cfg.extra_metrics:
            raise InvalidConfig(["oracle sources support single-metric configs only"])
        argv = command_argv(command)
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise OracleError(f"cannot start oracle {command!r}: {exc.strerror}") from None
        # Requests are written without blocking, so that a child that stops
        # reading cannot hold a write past the timeout.
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            hello = self._request(
                {
                    "type": "hello",
                    "n_candidates": cfg.n_candidates,
                    "alpha": cfg.alpha,
                    "direction": cfg.direction.value,
                }
            )
            if hello.get("type") != "hello":
                raise OracleMalformed(f"expected hello ack, got: {hello!r}")
        except BaseException:
            # Nothing outside can close a client whose constructor raised.
            self._shutdown(kill=True)
            raise

    def _pump(self) -> None:
        out = self._proc.stdout
        assert out is not None
        for line in out:
            self._lines.put(line)
        self._lines.put(_EOF)

    def _send(self, data: bytes, deadline: float) -> bool:
        """Write data to the child's stdin; False if the pipe stays full
        until deadline."""
        fd = self._proc.stdin.fileno()
        while data:
            try:
                data = data[os.write(fd, data):]
            except BlockingIOError:
                with selectors.DefaultSelector() as pipe:
                    pipe.register(fd, selectors.EVENT_WRITE)
                    if not pipe.select(max(0.0, deadline - time.monotonic())):
                        return False
        return True

    def _request(self, msg: dict) -> dict:
        """The answer to msg, which must arrive within the timeout of the
        request; a child that overruns it is killed, since a late answer
        could be taken for the answer to the next request."""
        deadline = time.monotonic() + self.timeout
        try:
            sent = self._send((json.dumps(msg) + "\n").encode(), deadline)
        except (OSError, ValueError) as exc:
            raise OracleProcessExit(f"oracle closed its stdin pipe: {exc}") from None
        if not sent:
            self._shutdown(kill=True)
            raise OracleTimeout(f"oracle read no {msg['type']} request within {self.timeout}s")
        try:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            self._shutdown(kill=True)
            raise OracleTimeout(f"no answer within {self.timeout}s to request {json.dumps(msg)}") from None
        if line is _EOF:
            raise OracleProcessExit(f"oracle exited while answering {json.dumps(msg)}")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError:
            raise OracleMalformed(f"not a JSON record: {line!r}") from None
        if not isinstance(reply, dict) or "type" not in reply:
            raise OracleMalformed(f"not a protocol message: {line!r}")
        if reply["type"] == "error":
            raise OracleError(f"oracle reported: {reply.get('message', '')!r}")
        return reply

    def query(self, round_index: int, ids: Sequence[int], token: str) -> list[float]:
        reply = self._request(
            {"type": "test", "round": round_index, "ids": list(ids), "token": token}
        )
        if reply.get("type") != "risks":
            raise OracleMalformed(f"expected risks, got: {reply!r}")
        if reply.get("round") != round_index:
            raise OracleMalformed(
                f"answer for round {reply.get('round')!r} to a round-{round_index} request"
            )
        values = reply.get("values")
        if not isinstance(values, list) or len(values) != len(ids):
            raise OracleMalformed(f"values must list one risk per requested id: {reply!r}")
        out = []
        for v in values:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise OracleMalformed(f"non-numeric risk in: {reply!r}")
            v = float(v)
            if not 0.0 <= v <= 1.0:
                raise OracleOutOfRangeRisk(f"risk {v!r} out of [0,1] in: {reply!r}")
            out.append(v)
        return out

    def _shutdown(self, kill: bool) -> None:
        proc = self._proc
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
        if kill:
            proc.kill()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        # With the child gone the reader meets EOF; stdout is closed only
        # after the reader has let go of it.
        self._reader.join(timeout=2.0)
        if not self._reader.is_alive() and proc.stdout is not None:
            proc.stdout.close()

    def close(self) -> None:
        self._shutdown(kill=False)

    def __enter__(self) -> "OracleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def oracle_client(
    command: str | Sequence[str], cfg: CalibrationConfig, timeout: float = DEFAULT_TIMEOUT
) -> OracleClient:
    """Start an oracle subprocess and complete the hello handshake."""
    return OracleClient(command, cfg, timeout)
