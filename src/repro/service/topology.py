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

What a shape runs is started by :meth:`Topology.start` and owned by
the :class:`Deployment` it returns — the one object that knows each
shape's members and the order they stop in.  Every heavy import here is
lazy: ``repro.service`` is on the spawn path.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.utils.logging import get_logger
from repro.utils.process import reap
from repro.utils.validation import ensure_int

_LOGGER = get_logger("service.topology")

#: Deployment shapes a topology can describe.
TOPOLOGY_KINDS = ("in_process", "fabric", "replicated")

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
        ``"in_process"`` / ``"fabric"`` / ``"replicated"``
        (:meth:`workers` builds a ``"fabric"``).
    processes:
        Fabric only: shard hosts.
    supervise:
        Fabric only: restart and replay dead shard hosts.
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
        if self.kind == "fabric":
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
    def workers(cls, processes: int, *, durability=None) -> "Topology":
        """Shard aggregation in ``processes`` fail-fast worker
        processes: exactly ``fabric(processes, supervise=False)``, each
        worker a ``repro serve-shard`` child on a loopback port, and a
        crash raises :class:`~repro.workers.handles.WorkerCrashedError`
        (recover from the WAL)."""
        return cls.fabric(processes, supervise=False, durability=durability)

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

    # ------------------------------------------------------------------
    def start(self, service) -> "Deployment":
        """Start this shape's members behind ``service`` (a freshly
        built :class:`~repro.service.ingest.IngestService`, which this
        attaches the durability manager to).  A start that fails part
        way closes what it had started before the error propagates."""
        deployment = Deployment(service)
        try:
            deployment._start(self)
        except BaseException:
            deployment.close()
            raise
        return deployment


def _stand_down(processes: list) -> None:
    """SIGTERM every process, then reap each (escalating on one that
    ignores it) — a fleet stops in one ``reap`` wait, not one each."""
    for process in processes:
        process.terminate()
    for process in processes:
        reap(process)


def _worker_spec(spec: dict) -> dict:
    """What a shard worker builds a campaign's aggregator from: the
    projection of the campaign's REGISTER body.  (A pool-backed
    service registers every campaign through ``register_campaign``, so
    the body always names the resolved backend kind.)"""
    return {
        "campaign_id": spec["campaign_id"],
        "num_users": spec["max_users"],
        "num_objects": len(spec["object_ids"]),
        "method": spec["method"],
        "aggregator": spec["aggregator"],
        "method_kwargs": dict(spec["method_kwargs"]),
    }


class Deployment:
    """What a :class:`Topology` started for one service, and the one
    way to stop it.

    Members start in a fixed order: the durability manager is resolved
    first (a config or path becomes a manager this deployment owns),
    then the :class:`~repro.workers.pool.ShardPool` (``fabric``) or the
    standbys (``replicated``), then — replicated only — the WAL
    sender, and under ``auto_failover`` the primary's
    status listener and the watchdog fleet.  Each member is registered
    on one :class:`contextlib.ExitStack` as soon as it is up, and
    :meth:`close` — like a start that fails part way — unwinds that
    stack: watchdogs stand down first (a planned shutdown must never
    read as a primary death), then the status listener, the sender, the
    pool or standbys, and last a manager this deployment built.  A
    manager the caller passed in is never closed here: its log may
    outlive the service for recovery.
    """

    def __init__(self, service) -> None:
        self.pool = None
        self.standbys = None
        self.status_server = None
        self.watchdogs: list = []
        self._service = service
        self._stack = contextlib.ExitStack()
        self._errors: list[Exception] = []

    def own(self, close) -> None:
        """Register a started member's ``close``: it runs when the
        deployment unwinds, after those of every later member."""
        self._stack.callback(self._close_member, close)

    def _close_member(self, close) -> None:
        try:
            close()
        except Exception as exc:  # the unwind must reach every member
            self._errors.append(exc)

    def close(self) -> None:
        """Close every member, latest-started first (idempotent).  A
        member whose close raises does not stop the unwind; the first
        such error is re-raised once every member has been closed."""
        self._stack.close()
        errors, self._errors = self._errors, []
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    def _start(self, topology: Topology) -> None:
        manager = topology.durability
        if manager is not None and not hasattr(manager, "wal"):
            from repro.durable.manager import DurabilityManager

            manager = DurabilityManager(manager)
            self.own(manager.close)
        if topology.kind == "fabric":
            self._start_pool(topology)
        elif topology.kind == "replicated":
            from repro.replication.pool import StandbyPool

            self.standbys = StandbyPool(
                topology.standbys,
                manager.directory,
                directories=topology.standby_dirs,
                fsync=topology.standby_fsync,
            )
            self.own(self.standbys.close)
        if manager is not None:
            self._service.attach_durability(manager)
        if topology.kind == "replicated":
            self._start_shipping(topology, manager)

    def _start_pool(self, topology: Topology) -> None:
        from repro.net.fabric import SocketLauncher
        from repro.workers.pool import ShardPool

        config = self._service.config
        self.pool = ShardPool(
            config.num_shards,
            topology.processes,
            asdict(config),
            SocketLauncher(),
            supervise=topology.supervise,
        )
        self.own(self.pool.close)
        if self.pool.supervisor is not None:
            # Permanent host loss: the supervisor re-homes the journaled
            # state onto survivors, then this hook re-points the
            # campaign's aggregator proxy.
            self.pool.supervisor.on_rehome = self._repoint_campaign

    def _start_shipping(self, topology: Topology, manager) -> None:
        """The sender, then — under ``auto_failover`` — the status
        listener and the detached watchdogs that will promote a standby
        if this process dies."""
        from repro.replication.sender import ReplicationSender

        sender = ReplicationSender(
            self.standbys.addresses,
            sync=topology.sync,
            ack_timeout=topology.ack_timeout,
        )
        manager.attach_replication(sender)
        self.own(sender.close)
        if not topology.auto_failover:
            return
        from repro.replication.watchdog import (
            PrimaryStatusServer,
            allocate_peer_ports,
            launch_watchdog,
        )

        self.status_server = PrimaryStatusServer(manager)
        self.own(self.status_server.stop)
        self.status_server.start()
        # The fleet is one member, owned before its first launch: a
        # member that fails to start stands the earlier ones down.
        self.own(functools.partial(_stand_down, self.watchdogs))
        count = topology.watchdogs
        peer_ports = allocate_peer_ports(count) if count > 1 else [None]
        for i in range(count):
            peers = [
                ("127.0.0.1", port)
                for j, port in enumerate(peer_ports)
                if j != i and port is not None
            ]
            self.watchdogs.append(
                launch_watchdog(
                    self.status_server.address,
                    self.standbys.addresses,
                    interval=topology.heartbeat_interval,
                    misses=topology.heartbeat_misses,
                    index=i,
                    peer_port=peer_ports[i],
                    peers=peers,
                )
            )

    # ------------------------------------------------------------------
    # Pool-side bookkeeping (``fabric``).
    def proxy(self, shard_index: int, spec: dict):
        """The parent-side :class:`~repro.workers.handles.
        RemoteAggregator` of a campaign (``spec`` is its REGISTER body)
        living in the worker that owns ``shard_index``."""
        from repro.workers.handles import RemoteAggregator

        # The spec carries the *resolved* backend kind (a bad
        # configuration already failed in register_campaign, with a
        # local traceback), so the proxy's bookkeeping
        # (refresh_changes_state) mirrors the real backend exactly.
        return RemoteAggregator(
            self.pool.handle_for(shard_index),
            spec["campaign_id"],
            spec["max_users"],
            len(spec["object_ids"]),
            backend=spec["aggregator"],
            refine_every=self._service.config.refine_every,
        )

    def register(self, shard_index: int, spec: dict) -> None:
        """Register a campaign, given its REGISTER body, on the worker
        owning ``shard_index``."""
        self.pool.handle_for(shard_index).register(_worker_spec(spec))

    def unregister(self, shard_index: int, campaign_id: str) -> None:
        """Drop a campaign from the worker owning ``shard_index``."""
        self.pool.handle_for(shard_index).unregister(campaign_id)

    def rebalance_shard(self, shard_index: int, target_worker: int) -> int:
        """Move one shard's campaigns to another worker/host, online.

        Works identically with and without supervision: routing is the
        :class:`~repro.workers.pool.ShardPool`'s
        :class:`~repro.net.placement.PlacementMap`.  Per campaign on the
        shard: register the spec on the target, ship ``state_dict``
        (the RPC is ordered after every frame already sent, so shipped
        batches — staged claims included — arrive in the state, bit for
        bit), drop the source copy, and re-home the
        :class:`~repro.workers.handles.RemoteAggregator` proxy.  Claims
        still queued parent-side need nothing: they resolve their
        handle at pump time, after the placement move.  Returns the
        number of campaigns moved.
        """
        pool = self.pool
        if pool is None:
            raise RuntimeError(
                "rebalancing requires a worker pool or fabric "
                "(Topology.workers(n) or Topology.fabric(n))"
            )
        service = self._service
        if not 0 <= shard_index < service.num_shards:
            raise IndexError(
                f"shard {shard_index} outside 0..{service.num_shards - 1}"
            )
        source = pool.handle_for(shard_index)
        target = pool.handles[target_worker]
        if target is source:
            return 0
        campaigns = [
            campaign_id
            for campaign_id in service.campaign_ids
            if service.shard_of(campaign_id) == shard_index
        ]
        for campaign_id in campaigns:
            target.register(
                _worker_spec(service.campaign_state(campaign_id).spec)
            )
            target.load_state(campaign_id, source.state_dict(campaign_id))
            source.unregister(campaign_id)
            self._repoint_campaign(campaign_id, target)
        pool.move_shard(shard_index, target_worker)
        _LOGGER.debug(
            "shard %d re-homed: worker %d -> %d (%d campaign(s))",
            shard_index,
            source.worker_id,
            target.worker_id,
            len(campaigns),
        )
        return len(campaigns)

    def _repoint_campaign(self, campaign_id: str, handle) -> None:
        """Point one campaign's aggregator proxy at the worker that now
        holds its state (also the supervisor's re-home hook)."""
        service = self._service
        if service.has_campaign(campaign_id):
            service.campaign_state(campaign_id).aggregator.rehome(handle)

    def fabric_stats(self) -> Optional[dict]:
        """Placement and supervision counters (None without a pool)."""
        pool = self.pool
        if pool is None:
            return None
        stats: dict = {
            "workers": pool.num_workers,
            "placement": pool.placement.describe(),
        }
        if pool.supervisor is not None:
            stats["supervision"] = pool.supervisor.stats()
        return stats
