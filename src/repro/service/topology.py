"""The service-topology API: one object says how a service deploys.

A :class:`Topology` is one value describing the whole deployment
shape, built by a named factory per shape::

    IngestService(config, topology=Topology.in_process())
    IngestService(config, topology=Topology.workers(4))
    IngestService(config, topology=Topology.fabric(2, supervise=True))
    IngestService(config, topology=Topology.replicated(
        standbys=2, durability="run/wal", sync="semi-sync"))

Every factory accepts ``durability=`` — a
:class:`~repro.durable.manager.DurabilityManager`, a
:class:`~repro.durable.manager.DurabilityConfig`, or a bare directory
path — because durability composes with every shape.
``Topology.replicated`` *requires* it: the write-ahead log is the
replicated object.  ``topology=`` and ``ledger=`` are the only
keywords ``IngestService`` takes besides its config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.utils.validation import ensure_int

#: Deployment shapes a topology can describe.
TOPOLOGY_KINDS = ("in_process", "workers", "fabric", "replicated")

#: Replication sync modes (mirrors repro.replication.sender.SYNC_MODES
#: without importing the package at module load).
REPLICATION_SYNC_MODES = ("async", "semi-sync")


@dataclass(frozen=True)
class Topology:
    """One deployment shape for an :class:`~repro.service.ingest.
    IngestService` (build via the factory classmethods).

    Attributes
    ----------
    kind:
        ``"in_process"`` / ``"workers"`` / ``"fabric"`` /
        ``"replicated"``.
    processes:
        Worker processes (``workers``) or shard hosts (``fabric``).
    supervise:
        Fabric only: restart and replay dead shard hosts.
    start_method:
        Workers only: the ``multiprocessing`` start method.
    standbys:
        Replicated only: warm standbys receiving the WAL stream.
    sync:
        Replicated only: ``"async"`` or ``"semi-sync"``.
    durability:
        A :class:`~repro.durable.manager.DurabilityManager`, a
        :class:`~repro.durable.manager.DurabilityConfig`, or a bare
        directory path; ``None`` runs volatile (not with
        ``replicated``).
    standby_dirs:
        Replicated only: explicit standby directories (defaults to
        ``<primary_dir>.standby<i>``).
    standby_fsync:
        Replicated only: commit policy of each standby's own WAL.
    ack_timeout:
        Replicated only: semi-sync back-pressure bound in seconds.
    auto_failover:
        Replicated only: arm the failover watchdog — a detached
        ``repro watchdog`` process heartbeats the primary over its
        status listener and, when the primary dies, elects the freshest
        standby (highest replicated watermark) and promotes it without
        operator involvement.  See ``docs/operations.md``.
    heartbeat_interval:
        Replicated only: seconds between watchdog heartbeats.
    heartbeat_misses:
        Replicated only: consecutive missed heartbeats before the
        watchdog declares the primary dead (detection timeout is
        roughly ``interval * misses``).
    watchdogs:
        Replicated + ``auto_failover`` only: size of the watchdog
        fleet.  More than one switches on quorum voting — a strict
        majority must agree the primary is dead before any member
        promotes, and the winner fences the promotion with a monotone
        epoch the standby persists.  Use an odd count (3 tolerates one
        partitioned watchdog).
    """

    kind: str = "in_process"
    processes: int = 0
    supervise: bool = True
    start_method: str = "spawn"
    standbys: int = 0
    sync: str = "async"
    durability: Optional[object] = None
    standby_dirs: Optional[tuple] = None
    standby_fsync: str = "batch"
    ack_timeout: float = 30.0
    auto_failover: bool = False
    heartbeat_interval: float = 0.5
    heartbeat_misses: int = 4
    watchdogs: int = 1

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}"
            )
        if self.kind in ("workers", "fabric"):
            ensure_int(self.processes, "processes", minimum=1)
        if self.kind == "replicated":
            ensure_int(self.standbys, "standbys", minimum=1)
            if self.sync not in REPLICATION_SYNC_MODES:
                raise ValueError(
                    f"sync must be one of {REPLICATION_SYNC_MODES}, "
                    f"got {self.sync!r}"
                )
            if self.durability is None:
                raise ValueError(
                    "Topology.replicated requires durability= (the "
                    "write-ahead log is what gets replicated)"
                )
            if (
                self.standby_dirs is not None
                and len(self.standby_dirs) != self.standbys
            ):
                raise ValueError(
                    f"{len(self.standby_dirs)} standby_dirs for "
                    f"{self.standbys} standbys"
                )
            if self.auto_failover:
                if self.heartbeat_interval <= 0:
                    raise ValueError(
                        f"heartbeat_interval must be > 0, got "
                        f"{self.heartbeat_interval}"
                    )
                ensure_int(
                    self.heartbeat_misses, "heartbeat_misses", minimum=1
                )
                ensure_int(self.watchdogs, "watchdogs", minimum=1)

    # ------------------------------------------------------------------
    @classmethod
    def in_process(cls, *, durability=None) -> "Topology":
        """Single process, shards as a state partition (the default)."""
        return cls(kind="in_process", durability=durability)

    @classmethod
    def workers(
        cls,
        processes: int,
        *,
        start_method: str = "spawn",
        durability=None,
    ) -> "Topology":
        """Shard aggregation in ``processes`` pipe-connected workers."""
        return cls(
            kind="workers",
            processes=processes,
            start_method=start_method,
            durability=durability,
        )

    @classmethod
    def fabric(
        cls,
        processes: int,
        *,
        supervise: bool = True,
        durability=None,
    ) -> "Topology":
        """Shard hosts on sockets (``repro serve-shard`` processes)."""
        return cls(
            kind="fabric",
            processes=processes,
            supervise=supervise,
            durability=durability,
        )

    @classmethod
    def replicated(
        cls,
        standbys: int = 1,
        *,
        durability,
        sync: str = "async",
        standby_dirs: Optional[Sequence[Union[str, Path]]] = None,
        standby_fsync: str = "batch",
        ack_timeout: float = 30.0,
        auto_failover: bool = False,
        heartbeat_interval: float = 0.5,
        heartbeat_misses: int = 4,
        watchdogs: int = 1,
    ) -> "Topology":
        """A durable primary shipping its WAL to warm standbys.

        With ``auto_failover=True`` the service also runs a status
        listener and spawns ``watchdogs`` detached failover watchdogs:
        if this process dies, they elect the freshest standby and —
        with ``watchdogs > 1`` — promote it only after a strict
        majority of the fleet agrees, fenced by a monotone epoch the
        standby persists (``repro.replication.watchdog``).  Odd fleet
        sizes tolerate ``(watchdogs - 1) // 2`` partitioned members.
        """
        return cls(
            kind="replicated",
            standbys=standbys,
            sync=sync,
            durability=durability,
            standby_dirs=(
                None
                if standby_dirs is None
                else tuple(str(d) for d in standby_dirs)
            ),
            standby_fsync=standby_fsync,
            ack_timeout=ack_timeout,
            auto_failover=auto_failover,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
            watchdogs=watchdogs,
        )
