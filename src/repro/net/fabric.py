"""The host fabric: shard hosts on ports behind one ingestion service.

:class:`FabricPool` is the socket counterpart of
:class:`~repro.workers.pool.WorkerPool` — the same surface (``handles``,
``handle_for``, ``check``, ``sync``, ``close``, ``move_shard``), so
:class:`~repro.service.ingest.IngestService` and every
:class:`~repro.workers.handles.RemoteAggregator` proxy work identically
over pipes or sockets.  The differences are operational:

* each worker is a **shard host**: a separate process started via
  ``repro serve-shard``, reached over TCP (today ``127.0.0.1``; the
  launch/connect split is exactly what a multi-machine deployment
  replaces with its own process manager);
* placement is an explicit, mutable :class:`~repro.net.placement.
  PlacementMap`, so shards can move between live hosts online;
* with ``supervise=True`` (the default) every handle journals its
  state-changing frames and a dead host is transparently restarted and
  replayed from its last capture
  (:class:`~repro.net.supervisor.Supervisor`) instead of poisoning the
  service with :class:`~repro.workers.handles.WorkerCrashedError`.

The launch contract with ``repro serve-shard --port 0``: the child
prints ``PORT <n>`` as its first stdout line once it is listening; the
parent reads that line (with a deadline), dials, and completes the same
``CONFIG`` → ``READY`` handshake the pipe pool uses.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from typing import Optional, Sequence

from repro.chaos import points as _chaos
from repro.durable import records as rec
from repro.net.placement import PlacementMap, shard_ranges
from repro.net.supervisor import SupervisedHandle, Supervisor
from repro.net.transport import SocketConnection, connect
from repro.utils.logging import get_logger
from repro.workers import protocol as proto
from repro.workers.handles import WorkerHandle

_LOGGER = get_logger("net.fabric")


class HostProcess:
    """``multiprocessing.Process``-shaped adapter over a host Popen.

    :class:`~repro.workers.handles.WorkerHandle` probes liveness and
    escalates shutdown through this surface; giving the subprocess the
    same shape keeps every crash-handling path identical across pipes
    and sockets.
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
            pass

    def terminate(self) -> None:
        self._popen.terminate()

    def kill(self) -> None:
        self._popen.kill()

    def release(self) -> None:
        """Close the launch pipe once the process is reaped."""
        if self._popen.stdout is not None:
            try:
                self._popen.stdout.close()
            except OSError:  # pragma: no cover - double close
                pass


def spawn_cli(
    argv: Sequence[str],
    *,
    port_timeout: Optional[float] = None,
    python: Optional[str] = None,
) -> tuple[subprocess.Popen, Optional[int]]:
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
        [python or sys.executable, "-m", "repro.cli", *argv],
        stdout=None if port_timeout is None else subprocess.PIPE,
        env=env,
    )
    if port_timeout is None:
        return popen, None
    try:
        port = _read_port(popen, port_timeout)
    except BaseException:
        popen.kill()
        popen.wait()
        popen.stdout.close()
        raise
    return popen, port


def launch_shard_host(
    worker_id: int,
    shard_range: tuple,
    *,
    host: str = "127.0.0.1",
    start_timeout: float = 120.0,
    python: Optional[str] = None,
) -> tuple[HostProcess, int]:
    """Start ``repro serve-shard`` and learn its ephemeral port."""
    lo, hi = shard_range
    popen, port = spawn_cli(
        [
            "serve-shard",
            "--host", host,
            "--port", "0",
            "--worker-id", str(worker_id),
            "--shards", str(lo), str(hi),
        ],
        port_timeout=start_timeout,
        python=python,
    )
    _LOGGER.debug(
        "shard host %d up: pid %d, port %d", worker_id, popen.pid, port
    )
    return HostProcess(popen), port


def _read_port(popen: subprocess.Popen, timeout: float) -> int:
    """Read the child's ``PORT <n>`` announcement with a deadline."""
    deadline = time.monotonic() + timeout
    stream = popen.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"shard host pid {popen.pid} announced no port within "
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
                f"shard host pid {popen.pid} exited before announcing "
                f"a port (exit code {popen.poll()})"
            )
        if line.startswith("PORT "):
            return int(line.split(None, 1)[1])


class FabricPool:
    """N shard hosts on localhost ports behind one ingestion service.

    Parameters
    ----------
    num_shards:
        The service's shard count (placement domain).
    num_hosts:
        Shard-host processes to launch (``1 <= num_hosts <=
        num_shards``).
    config_payload:
        JSON-serialisable service configuration, sent to every host as
        its first (``CONFIG``) frame — the same handshake as the pipe
        pool.
    host:
        Interface the shard hosts bind and the parent dials.
    supervise:
        Journal every host and transparently restart/replay a dead one
        (default).  ``False`` reproduces the pipe pool's fail-fast
        behaviour over sockets.
    checkpoint_every_claims:
        Supervision cadence: a host's journal is collapsed into a fresh
        state capture after this many journaled claims.
    start_timeout:
        Seconds to wait for each host to announce its port, accept the
        connection, and answer ``READY``.
    """

    def __init__(
        self,
        num_shards: int,
        num_hosts: int,
        config_payload: dict,
        *,
        host: str = "127.0.0.1",
        supervise: bool = True,
        checkpoint_every_claims: int = 50_000,
        start_timeout: float = 120.0,
    ) -> None:
        self._closed = False
        self._host = host
        self.start_timeout = start_timeout
        self.config_frame = rec.encode_json_payload(config_payload)
        self.placement = PlacementMap(num_shards, num_hosts)
        self.supervisor: Optional[Supervisor] = (
            Supervisor(
                self, checkpoint_every_claims=checkpoint_every_claims
            )
            if supervise
            else None
        )
        self.handles: list[WorkerHandle] = []
        try:
            for worker_id, (lo, hi) in enumerate(
                shard_ranges(num_shards, num_hosts)
            ):
                process, port = launch_shard_host(
                    worker_id,
                    (lo, hi),
                    host=host,
                    start_timeout=start_timeout,
                )
                conn = connect((host, port), timeout=start_timeout)
                if self.supervisor is not None:
                    handle: WorkerHandle = SupervisedHandle(
                        worker_id,
                        (lo, hi),
                        process,
                        conn,
                        supervisor=self.supervisor,
                    )
                else:
                    handle = WorkerHandle(worker_id, (lo, hi), process, conn)
                self.handles.append(handle)
                handle.send(rec.CONFIG, self.config_frame)
            # Handshake after every host is launched, so slow starts
            # overlap instead of serialising.
            for handle in self.handles:
                handle.expect(proto.READY, timeout=start_timeout)
        except BaseException:
            self.close()
            raise
        _LOGGER.debug(
            "fabric up: %d host(s) over %d shard(s) on %s",
            num_hosts,
            num_shards,
            host,
        )

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.handles)

    def handle_for(self, shard_index: int) -> WorkerHandle:
        """The handle owning ``shard_index`` (placement lookup)."""
        return self.handles[self.placement.owner_of(shard_index)]

    def move_shard(self, shard_index: int, target_worker: int) -> int:
        """Reassign one shard in the placement; returns the old owner.

        Pure routing — the caller
        (:meth:`~repro.service.ingest.IngestService.rebalance_shard`)
        moves the campaign state first.
        """
        return self.placement.move(shard_index, target_worker)

    def check(self) -> None:
        """Probe every host (cheap; called per pump).

        Supervised handles absorb crashes by restarting the host;
        afterwards any host whose journal outgrew the claim budget is
        re-captured.  Hosts declared lost for good (re-homed by the
        supervisor) are skipped — probing a retired corpse would only
        re-detect the loss.
        """
        for handle in self.handles:
            if handle.lost:
                continue
            handle.check()
        if self.supervisor is not None:
            self.supervisor.maybe_checkpoint()

    def sync(self) -> None:
        """Barrier across all hosts: every shipped frame is processed."""
        for handle in self.handles:
            if handle.lost:
                continue
            handle.sync()

    def ping(self, worker_id: int, *, timeout: float = 5.0) -> float:
        """Heartbeat one host over a dedicated connection; returns RTT.

        Uses a fresh connection on purpose: an unsolicited frame on the
        data plane would be read as an error report, so liveness probes
        get their own stream (the shard host serves both concurrently).
        """
        handle = self.handles[worker_id]
        sock = connect(
            (self._host, self._port_of(handle)), timeout=timeout
        )
        try:
            start = time.perf_counter()
            proto.send_frame(sock, proto.PING, b"ping")
            if not sock.poll(timeout):
                raise TimeoutError(
                    f"host {worker_id} answered no PONG within {timeout}s"
                )
            rtype, payload = proto.recv_frame(sock)
            if rtype != proto.PONG:
                raise proto.ProtocolError(
                    f"host {worker_id} answered frame type {rtype} to a "
                    f"PING"
                )
            return time.perf_counter() - start
        finally:
            sock.close()

    def _port_of(self, handle: WorkerHandle) -> int:
        conn = handle._conn
        if not isinstance(conn, SocketConnection):  # pragma: no cover
            raise RuntimeError("handle has no socket connection")
        return conn._sock.getpeername()[1]

    # ------------------------------------------------------------------
    def respawn(self, handle) -> None:
        """Replace a dead host's process and socket (supervisor hook).

        Raises ``OSError`` when the replacement cannot be launched —
        including when the injectable ``proc.spawn`` fault point fires,
        which is how chaos drills model a machine that is gone for good
        (the supervisor's bounded retries exhaust and it re-homes the
        host's shards instead).
        """
        fault = _chaos.fire("proc.spawn")
        if fault is not None:
            raise OSError(
                f"chaos: spawn of shard host {handle.worker_id} refused "
                f"(#{fault.index})"
            )
        old = handle.process
        if old.is_alive():
            old.kill()
        old.join(10.0)
        old.release()
        process, port = launch_shard_host(
            handle.worker_id,
            handle.shard_range,
            host=self._host,
            start_timeout=self.start_timeout,
        )
        conn = connect((self._host, port), timeout=self.start_timeout)
        handle.reset(process, conn)

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut every host down cleanly; idempotent and crash-safe."""
        if self._closed:
            return
        self._closed = True
        if self.supervisor is not None:
            # No failover during teardown: a host that is already gone
            # is exactly what we want.
            self.supervisor.active = False
        for handle in self.handles:
            if not handle.lost:
                handle.shutdown(timeout)
            release = getattr(handle.process, "release", None)
            if release is not None:
                release()

    def __enter__(self) -> "FabricPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
