"""External risk-oracle subprocess client.

Wire protocol: newline-delimited JSON over the child's stdin/stdout, UTF-8,
one record per line.

- client -> oracle  {"type": "hello", "n_candidates": N, "alpha": a, "direction": "risk_below"}
- oracle -> client  {"type": "hello", ...}            (extra keys are ignored)
- client -> oracle  {"type": "test", "round": t, "ids": [..], "token": "<16 hex>"}
- oracle -> client  {"type": "risks", "round": t, "values": [..]}
- either direction  {"type": "error", "message": "..."}   aborts the run

Requests and answers alternate strictly; every answer must echo the round it
replies to as a JSON integer, carry exactly one value in [0, 1] per requested
id, and end its line within the timeout of its request, writing the request
included.  Any deviation aborts with a typed error carrying the offending
record; values are never clamped, since silently repairing an out-of-range
risk would void the statistical guarantee.  The client runs in the calling
thread: one selector waits on both pipes.
"""

from __future__ import annotations

import json
import os
import selectors
import shlex
import subprocess
import time
from typing import Sequence

from .core import CalibrationConfig, shown
from .errors import (
    InvalidConfig,
    OracleError,
    OracleMalformed,
    OracleOutOfRangeRisk,
    OracleProcessExit,
    OracleTimeout,
)

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
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise OracleError(f"cannot start oracle {command!r}: {exc.strerror}") from None
        # Requests are written without blocking, so that a child that stops
        # reading cannot hold a write past the timeout.  One selector waits on
        # stdout, and on stdin while a request is only partly written.
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._pipes = selectors.DefaultSelector()
        self._pipes.register(self._proc.stdout, selectors.EVENT_READ)
        # What the child wrote after the last line that was taken as an answer.
        self._unread = b""
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
                raise OracleMalformed(f"expected hello ack, got: {shown(hello)}")
        except BaseException:
            # Nothing outside can close a client whose constructor raised.
            self._shutdown(kill=True)
            raise

    def _write(self, data: bytes) -> bytes:
        """What is left of data after one non-blocking write to the child."""
        try:
            return data[self._proc.stdin.write(data) or 0 :]
        except OSError as exc:
            raise OracleProcessExit(f"oracle closed its stdin pipe: {exc}") from None

    def _exchange(self, msg: dict) -> bytes:
        """The next line the child writes, once msg is written to it.  Both
        must happen within the timeout of the request.  A child that overruns
        it is killed, since a late answer could be taken for the answer to the
        next request; so is one that closes a pipe, as it can answer no more."""
        deadline = time.monotonic() + self.timeout
        stdin = self._proc.stdin
        if stdin.closed:
            raise OracleProcessExit("the oracle client is closed")
        try:
            pending = self._write((json.dumps(msg) + "\n").encode())
            if pending:
                self._pipes.register(stdin, selectors.EVENT_WRITE)
            while pending or b"\n" not in self._unread:
                ready = self._pipes.select(max(0.0, deadline - time.monotonic()))
                if not ready and pending:
                    raise OracleTimeout(f"oracle read no {msg['type']} request within {self.timeout}s")
                if not ready:
                    raise OracleTimeout(f"no answer within {self.timeout}s to request {shown(msg)}")
                for key, _ in ready:
                    if key.fileobj is stdin:
                        pending = self._write(pending)
                        if not pending:
                            self._pipes.unregister(stdin)
                    elif chunk := self._proc.stdout.read(4096):
                        self._unread += chunk
                    else:
                        wrote = f"; it wrote {shown(self._unread)}" if self._unread else ""
                        raise OracleProcessExit(f"oracle exited while answering {shown(msg)}{wrote}")
        except OracleError:
            self._shutdown(kill=True)
            raise
        line, _, self._unread = self._unread.partition(b"\n")
        return line

    def _request(self, msg: dict) -> dict:
        """The answer to msg, a protocol message other than an error."""
        line = self._exchange(msg)
        try:
            reply = json.loads(line.decode())
        except ValueError:
            raise OracleMalformed(f"not a JSON record: {shown(line)}") from None
        if not isinstance(reply, dict) or "type" not in reply:
            raise OracleMalformed(f"not a protocol message: {shown(line)}")
        if reply["type"] == "error":
            raise OracleError(f"oracle reported: {shown(reply.get('message', ''))}")
        return reply

    def query(self, round_index: int, ids: Sequence[int], token: str) -> list[float]:
        reply = self._request(
            {"type": "test", "round": round_index, "ids": list(ids), "token": token}
        )
        if reply.get("type") != "risks":
            raise OracleMalformed(f"expected risks, got: {shown(reply)}")
        if type(reply.get("round")) is not int or reply["round"] != round_index:
            raise OracleMalformed(
                f"answer for round {shown(reply.get('round'))} to a round-{round_index} request"
            )
        values = reply.get("values")
        if not isinstance(values, list) or len(values) != len(ids):
            raise OracleMalformed(
                f"round {round_index}: values must list one risk per requested id, got {shown(values)}")
        out = []
        for i, v in zip(ids, values):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise OracleMalformed(f"round {round_index}: non-numeric risk {shown(v)} for id {i}")
            # Compared before float(), which an int too large for a float
            # would fail.
            if not 0.0 <= v <= 1.0:
                raise OracleOutOfRangeRisk(f"round {round_index}: risk {shown(v)} for id {i} out of [0,1]")
            out.append(float(v))
        return out

    def _shutdown(self, kill: bool) -> None:
        proc = self._proc
        proc.stdin.close()
        if kill:
            proc.kill()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self._pipes.close()

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
