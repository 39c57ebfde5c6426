"""The shard pool: process lifecycle and shard-to-worker placement.

A :class:`ShardPool` owns N child processes and assigns each a
contiguous range of the service's shards through a mutable
:class:`~repro.net.placement.PlacementMap`, so routing and online
rebalancing work identically whatever carries the frames.  The pool is
transport-free: its one transport-specific input is a *launcher*,
``launch(worker_id, shard_range) -> (process, conn)``, returning a
started child (a :class:`~repro.net.fabric.HostProcess`) and a
connected :class:`~repro.net.transport.SocketConnection` to it.  The
launcher is :class:`~repro.net.fabric.SocketLauncher`: a ``repro
serve-shard`` child, forked from the process-wide launcher, on a
loopback TCP port — for ``Topology.workers(n)`` and
``Topology.fabric(n)`` alike.

Startup is a handshake: each child receives a ``CONFIG`` frame (the
service configuration, as the same JSON record the write-ahead log
stores) as soon as it is launched and must answer ``READY`` — awaited
only once every child is started, so slow starts overlap.  A child that
fails on the config is reported with its traceback instead of hanging
the parent.

With ``supervise=True`` every handle journals its state-changing frames
and a dead child is restarted through the same launcher and replayed
from its last capture (:class:`~repro.net.supervisor.Supervisor`)
instead of poisoning the service with
:class:`~repro.workers.handles.WorkerCrashedError`.
"""

from __future__ import annotations

import functools

from repro.chaos import points as _chaos
from repro.durable import records as rec
from repro.net.placement import PlacementMap, shard_ranges
from repro.utils.logging import get_logger
from repro.utils.process import reap
from repro.workers import protocol as proto
from repro.workers.handles import WorkerHandle

_LOGGER = get_logger("workers.pool")

__all__ = ["ShardPool", "shard_ranges"]


class ShardPool:
    """N shard-worker processes behind one ingestion service.

    Parameters
    ----------
    num_shards:
        The service's shard count (placement domain).
    num_workers:
        Child processes to launch (``1 <= num_workers <= num_shards``).
    config_payload:
        JSON-serialisable service configuration, sent to every child as
        its first (``CONFIG``) frame.
    launch:
        The launcher (see the module docstring); also what
        :meth:`respawn` calls to replace a dead child.
    supervise:
        Journal every child and transparently restart/replay a dead
        one.  ``False`` is fail-fast: a crash surfaces as
        :class:`~repro.workers.handles.WorkerCrashedError`.
    ready_timeout:
        Seconds to wait for each child's READY handshake (the first
        launch starts the launcher, which imports NumPy; on a cold CI
        runner that is slow).
    """

    def __init__(
        self,
        num_shards: int,
        num_workers: int,
        config_payload: dict,
        launch,
        *,
        supervise: bool = False,
        ready_timeout: float = 120.0,
    ) -> None:
        self._closed = False
        self._launch = launch
        self.ready_timeout = ready_timeout
        self.config_frame = rec.encode_json_payload(config_payload)
        #: Explicit, mutable shard->worker table.
        self.placement = PlacementMap(num_shards, num_workers)
        self.supervisor = None
        make_handle = WorkerHandle
        if supervise:
            from repro.net.supervisor import SupervisedHandle, Supervisor

            self.supervisor = Supervisor(self)
            make_handle = functools.partial(
                SupervisedHandle, supervisor=self.supervisor
            )
        self.handles: list[WorkerHandle] = []
        try:
            for worker_id, shard_range in enumerate(
                shard_ranges(num_shards, num_workers)
            ):
                process, conn = launch(worker_id, shard_range)
                handle = make_handle(worker_id, shard_range, process, conn)
                self.handles.append(handle)
                handle.send(rec.CONFIG, self.config_frame)
            # Handshake after every child is launched, so slow starts
            # overlap instead of serialising.
            for handle in self.handles:
                handle.expect(proto.READY, timeout=ready_timeout)
        except BaseException:
            self.close()
            raise
        _LOGGER.debug(
            "shard pool up: %d worker(s) over %d shard(s)",
            num_workers,
            num_shards,
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
        moves the campaign state between workers first.
        """
        return self.placement.move(shard_index, target_worker)

    def check(self) -> None:
        """Probe every child for crashes (cheap; called per pump).

        Supervised handles absorb crashes by restarting the child;
        afterwards any child whose journal has grown to four times the
        size of its last capture (and past the claim floor) is
        re-captured.  Per host, that keeps capture traffic within a
        quarter of the journaled stream (plus the captures in force and
        those a failover or re-home replaced), the parent's copy within
        capture + journal <= 5 x state (6 x during a sweep), and a
        crash's replay within 4 states' worth of frames; see
        :mod:`repro.net.supervisor`.
        Children declared lost for good (re-homed by the
        supervisor) are skipped — probing a retired corpse would only
        re-detect the loss.
        """
        for handle in self.handles:
            if not handle.lost:
                handle.check()
        if self.supervisor is not None:
            self.supervisor.maybe_checkpoint()

    def sync(self) -> None:
        """Barrier across all children: every shipped frame is processed."""
        for handle in self.handles:
            if not handle.lost:
                handle.sync()

    def ping(self, worker_id: int, *, timeout: float = 5.0) -> float:
        """Heartbeat one shard host off the data plane; returns the RTT."""
        return self._launch.ping(worker_id, timeout=timeout)

    # ------------------------------------------------------------------
    def respawn(self, handle) -> None:
        """Replace a dead child's process and stream (supervisor hook).

        Raises ``OSError`` when the replacement cannot be launched —
        including when the injectable ``proc.spawn`` fault point fires,
        which is how chaos drills model a machine that is gone for good
        (the supervisor's bounded retries exhaust and it re-homes the
        child's shards instead).
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
        reap(old)
        handle.reset(*self._launch(handle.worker_id, handle.shard_range))

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut every child down cleanly; idempotent and crash-safe."""
        if self._closed:
            return
        self._closed = True
        if self.supervisor is not None:
            # No failover during teardown: a child that is already gone
            # is exactly what we want.
            self.supervisor.active = False
        for handle in self.handles:
            if handle.lost:
                # Retired: no stream left to say goodbye on.
                reap(handle.process, timeout)
            else:
                handle.shutdown(timeout)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
