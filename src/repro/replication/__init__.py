"""WAL-shipping replication: warm standbys, read replicas, promotion.

The primary's :class:`~repro.durable.wal.WriteAheadLog` is the
replicated object: a :class:`ReplicationSender` ships every committed
group (post-fsync, cursored by the durable-ack watermark) to N
:class:`StandbyServer` processes over the shared
:mod:`repro.net` framing.  Each standby persists the stream into its
own WAL generation — acking only after its own fsync — and continuously
replays it into live aggregators, so :class:`ReplicaReadClient` reads
are instant and :meth:`StandbyServer.promote` yields a primary whose
truths are bitwise-equal to the crashed one at the replicated
watermark, with spent privacy budget staying spent.

Promotion can be automatic: :class:`FailoverWatchdog` (see
:mod:`repro.replication.watchdog`) heartbeats the primary's
:class:`PrimaryStatusServer`, detects its death, elects the standby
with the highest replicated watermark, and promotes it — the detached
process behind ``Topology.replicated(auto_failover=True)``.
:class:`FailoverReadClient` keeps replica readers working across
standby deaths and promotions.

Construction normally goes through
``Topology.replicated(standbys=n)`` (see :mod:`repro.service.topology`);
the pieces here are the public surface for custom deployments.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "REPLICATION_FORMAT": "repro.replication.protocol",
    "SYNC_MODES": "repro.replication.sender",
    "FailoverReadClient": "repro.replication.client",
    "FailoverWatchdog": "repro.replication.watchdog",
    "PrimaryStatusServer": "repro.replication.watchdog",
    "ReplicaError": "repro.replication.client",
    "ReplicaReadClient": "repro.replication.client",
    "ReplicationError": "repro.replication.sender",
    "ReplicationSender": "repro.replication.sender",
    "StandbyError": "repro.replication.standby",
    "StandbyHandle": "repro.replication.pool",
    "StandbyPool": "repro.replication.pool",
    "StandbyServer": "repro.replication.standby",
    "WatchdogError": "repro.replication.watchdog",
    "launch_watchdog": "repro.replication.watchdog",
    "serve_standby": "repro.replication.standby",
    "standby_directory": "repro.replication.pool",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
