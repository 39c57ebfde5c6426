"""Child processes of the service: launch and own — and the socket
launcher of the shard fabric.

Every process this package starts — shard hosts, standbys, watchdogs —
goes through the same pieces:

* :func:`spawn_cli` starts ``python -m repro.cli <argv>`` and hands back
  a :class:`HostProcess`, the ``multiprocessing.Process`` surface over
  the ``Popen``, so a pipe worker and a CLI child are owned through one
  interface;
* :func:`~repro.utils.process.reap` is the one shutdown ladder (join →
  terminate → kill), kept in a dependency-free module;
* :class:`SocketLauncher` is what makes a
  :class:`~repro.workers.pool.ShardPool` a socket fabric: it starts
  ``repro serve-shard --port 0``, reads the ``PORT <n>`` line the child
  prints once it is listening (the launch contract), and dials.  Today
  the hosts are ``127.0.0.1`` subprocesses; the launcher is exactly
  what a multi-machine deployment replaces with its own process
  manager.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from typing import Optional, Sequence

from repro.net.transport import SocketConnection, call, connect
from repro.utils.logging import get_logger
from repro.workers import protocol as proto

_LOGGER = get_logger("net.fabric")


class HostProcess:
    """``multiprocessing.Process``-shaped adapter over a CLI child.

    Handles, pools and :func:`~repro.utils.process.reap` probe liveness
    and escalate shutdown through this surface; giving the subprocess the same shape
    keeps every crash-handling path identical across pipes and sockets.
    """

    def __init__(self, popen: subprocess.Popen) -> None:
        self._popen = popen

    @property
    def pid(self) -> int:
        return self._popen.pid

    @property
    def exitcode(self) -> Optional[int]:
        return self._popen.poll()

    def is_alive(self) -> bool:
        return self._popen.poll() is None

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self._popen.wait(timeout)
        except subprocess.TimeoutExpired:
            return
        self.close()

    def terminate(self) -> None:
        self._popen.terminate()

    def kill(self) -> None:
        self._popen.kill()

    def close(self) -> None:
        """Close the launch pipe (idempotent; ``join`` does it once the
        child is reaped).  ``pid`` and ``exitcode`` stay readable."""
        if self._popen.stdout is not None:
            self._popen.stdout.close()


def spawn_cli(
    argv: Sequence[str], *, port_timeout: Optional[float] = None
) -> tuple[HostProcess, Optional[int]]:
    """Start ``python -m repro.cli <argv>`` with this checkout importable.

    With ``port_timeout`` the child's stdout is piped and its ``PORT
    <n>`` announcement awaited (the ``serve-shard`` / ``standby`` launch
    contract); a child that does not announce is killed and reaped
    before the error propagates.  Without it the child inherits stdout
    and the port is ``None``.
    """
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    popen = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=None if port_timeout is None else subprocess.PIPE,
        env=env,
    )
    process = HostProcess(popen)
    if port_timeout is None:
        return process, None
    try:
        port = _read_port(popen, port_timeout)
    except BaseException:
        process.kill()
        process.join()
        raise
    return process, port


def _read_port(popen: subprocess.Popen, timeout: float) -> int:
    """Read the child's ``PORT <n>`` announcement with a deadline."""
    deadline = time.monotonic() + timeout
    stream = popen.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"child pid {popen.pid} announced no port within "
                f"{timeout:.0f}s"
            )
        readable, _, _ = select.select([stream], [], [], remaining)
        if not readable:
            continue
        # The announcement is one short line written with a single
        # flushed print, so one readable event carries the whole line.
        line = stream.readline().decode("utf-8", "replace").strip()
        if not line:
            raise RuntimeError(
                f"child pid {popen.pid} exited before announcing a "
                f"port (exit code {popen.poll()})"
            )
        if line.startswith("PORT "):
            return int(line.split(None, 1)[1])


class SocketLauncher:
    """Launch shard hosts as ``repro serve-shard`` children on TCP.

    Called as ``launch(worker_id, shard_range) -> (process, conn)``, the
    launcher contract of :class:`~repro.workers.pool.ShardPool`.  It
    owns both steps of a launch, so a child that started but cannot be
    dialled is killed and reaped here, before the error propagates — no
    handle would ever own it, and a shard host nobody dialled never
    exits on its own.
    """

    def __init__(
        self, host: str = "127.0.0.1", *, start_timeout: float = 120.0
    ) -> None:
        self._host = host
        self._start_timeout = start_timeout
        #: worker_id -> the address its current host listens on.
        self.addresses: dict[int, tuple[str, int]] = {}

    def __call__(
        self, worker_id: int, shard_range: tuple
    ) -> tuple[HostProcess, SocketConnection]:
        lo, hi = shard_range
        process, port = spawn_cli(
            [
                "serve-shard",
                "--host", self._host,
                "--port", "0",
                "--worker-id", str(worker_id),
                "--shards", str(lo), str(hi),
            ],
            port_timeout=self._start_timeout,
        )
        try:
            conn = connect((self._host, port), timeout=self._start_timeout)
        except BaseException:
            process.kill()
            process.join()
            raise
        self.addresses[worker_id] = (self._host, port)
        _LOGGER.debug(
            "shard host %d up: pid %d, port %d", worker_id, process.pid, port
        )
        return process, conn

    def ping(self, worker_id: int, *, timeout: float = 5.0) -> float:
        """Heartbeat one host over a dedicated connection; returns RTT.

        Uses a fresh connection on purpose: an unsolicited frame on the
        data plane would be read as an error report, so liveness probes
        get their own stream (the shard host serves both concurrently).
        """
        start = time.perf_counter()
        rtype, _payload = call(
            self.addresses[worker_id], proto.PING, b"ping", timeout=timeout
        )
        if rtype != proto.PONG:
            raise proto.ProtocolError(
                f"host {worker_id} answered frame type {rtype} to a PING"
            )
        return time.perf_counter() - start
