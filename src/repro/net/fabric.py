"""Child processes of the service: launch and own — and the socket
launcher of the shard fabric.

Every process this package starts — shard hosts, standbys, watchdogs —
goes through the same pieces:

* :func:`spawn_cli` asks this process's :mod:`launcher
  <repro.net.launcher>` — one warm process that has already imported
  NumPy and every child role — to fork ``repro.cli <argv>``, and hands
  back a :class:`HostProcess`, the ``multiprocessing.Process`` surface
  over that child, so a pipe worker and a CLI child are owned through
  one interface.  The first spawn in a process starts the launcher and
  pays the imports once; every later spawn, respawn and re-home is a
  fork of a few milliseconds;
* :func:`~repro.utils.process.reap` is the one shutdown ladder (join →
  terminate → kill), kept in a dependency-free module;
* :class:`SocketLauncher` is what makes a
  :class:`~repro.workers.pool.ShardPool` a socket fabric: it starts
  ``repro serve-shard --port 0``, reads the ``PORT <n>`` line the child
  prints once it is listening (the launch contract), and dials.  Today
  the hosts are ``127.0.0.1`` children; :class:`SocketLauncher` is
  exactly what a multi-machine deployment replaces with its own
  process manager.
"""

from __future__ import annotations

import os
import select
import signal
import time
import weakref
from typing import Optional, Sequence

from repro.net.launcher import launcher
from repro.net.transport import SocketConnection, call, connect
from repro.utils.logging import get_logger
from repro.workers import protocol as proto

_LOGGER = get_logger("net.fabric")


class HostProcess:
    """``multiprocessing.Process``-shaped handle on a launcher's child.

    Handles, pools and :func:`~repro.utils.process.reap` probe liveness
    and escalate shutdown through this surface; giving the CLI child
    the same shape keeps every crash-handling path identical across
    pipes and sockets.  Liveness and signals go through a pidfd, so
    they can never reach a recycled pid; the exit code is the
    launcher's report once it reaped the child.  A child whose launcher
    died first reads dead with ``exitcode`` None: its status went to
    whoever reaped it.
    """

    def __init__(self, owner, pid: int, pidfd: int) -> None:
        self._owner = owner
        self.pid = pid
        self._pidfd = pidfd
        weakref.finalize(self, os.close, pidfd)
        #: Set by the launcher's exit report: the code, ``-signum``
        #: for a signal.
        self.returncode: Optional[int] = None
        #: Set when the launcher died before reporting this child.
        self.orphaned = False
        self._exited = False
        #: The read end of the launch pipe, when the port was awaited.
        self.stdout = None

    @property
    def exitcode(self) -> Optional[int]:
        if self.returncode is None and self._exit_seen(0):
            self._owner.await_report(self, None)
        return self.returncode

    def is_alive(self) -> bool:
        return not self._exit_seen(0)

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._exit_seen(timeout):
            return
        if self.returncode is None:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            self._owner.await_report(self, remaining)
        if self.returncode is not None or self.orphaned:
            self.close()

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def close(self) -> None:
        """Close the launch pipe (idempotent; ``join`` does it once the
        child is reaped).  ``pid`` and ``exitcode`` stay readable."""
        if self.stdout is not None:
            self.stdout.close()

    def _exit_seen(self, timeout: Optional[float]) -> bool:
        """Whether the child has exited, waiting up to ``timeout``."""
        if not self._exited and self.returncode is None:
            self._exited = bool(
                select.select([self._pidfd], [], [], timeout)[0]
            )
        return self._exited or self.returncode is not None

    def _signal(self, signum: int) -> None:
        if self.returncode is None:
            try:
                signal.pidfd_send_signal(self._pidfd, signum)
            except ProcessLookupError:
                pass  # exited and reaped; its report is on its way


def spawn_cli(
    argv: Sequence[str], *, port_timeout: Optional[float] = None
) -> tuple[HostProcess, Optional[int]]:
    """Start ``repro.cli <argv>`` as ``python -m repro.cli`` would, as a
    fork of this process's launcher.

    With ``port_timeout`` the child's stdout is a pipe and its ``PORT
    <n>`` announcement awaited (the ``serve-shard`` / ``standby`` launch
    contract); a child that does not announce is killed and reaped
    before the error propagates.  Without it the child inherits stdout
    and the port is ``None``.
    """
    if port_timeout is None:
        return launcher().spawn(argv), None
    read_end, write_end = os.pipe()
    try:
        process = launcher().spawn(argv, stdout=write_end)
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
    process.stdout = os.fdopen(read_end, "rb")
    try:
        port = _read_port(process, port_timeout)
    except BaseException:
        process.kill()
        process.join()
        raise
    return process, port


def _read_port(process: HostProcess, timeout: float) -> int:
    """Read the child's ``PORT <n>`` announcement with a deadline."""
    deadline = time.monotonic() + timeout
    stream = process.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"child pid {process.pid} announced no port within "
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
                f"child pid {process.pid} exited before announcing a "
                f"port (exit code {process.exitcode})"
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
