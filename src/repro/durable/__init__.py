"""Durable ingestion: write-ahead log, checkpoints, crash recovery.

The serving layer (:mod:`repro.service`) holds campaign state in
memory; this package makes that state survive a crash:

* :class:`WriteAheadLog` — segmented, CRC-checked, append-only log of
  every accepted micro-batch (plus campaign registrations, user-slot
  assignments, and privacy-budget charges), with ``never`` / ``batch``
  / ``always`` fsync policies, segment rotation, and retention.  Every
  append stages its record, and each drain commits the staged group
  with one ``writev`` and one fdatasync, on the calling thread (at
  ``sync()``, per record under ``always``, or when staging crosses its
  high-water mark); the monotone ``durable_lsn`` watermark is the
  durable-ack primitive.  A failed drain stays failed;
* :func:`compact_directory` /
  :meth:`~repro.durable.manager.DurabilityManager.compact` —
  claim-granular log compaction: rewrite the live records (the
  post-checkpoint suffix, current registrations, all budget charges)
  into fresh segments behind an atomic temp-dir + rename +
  directory-fsync swap, so disk usage is bounded by live state rather
  than segment boundaries; a crash at any point mid-swap is rolled
  forward or back on the next open;
* :class:`CompactionPolicy` / :class:`CompactionTrigger` — policy-driven
  compaction (disk-usage and segment-age thresholds), evaluated and run
  on the pump thread at the manager's ``after_pump`` quiesce point, at
  most once per check interval;
* :class:`CheckpointStore` — atomic snapshots of per-campaign
  aggregator state and the :class:`~repro.service.ledger.BudgetLedger`,
  bounding how much log a restart must replay;
* :class:`DurabilityManager` — the hook an
  :class:`~repro.service.ingest.IngestService` attaches (a topology's
  ``durability=``): it logs each flushed micro-batch *before* the
  aggregator sees it and drives group commit and automatic
  checkpoints;
* :class:`RecoveryManager` — rebuilds the service after a crash from
  the latest valid checkpoint plus the log suffix, truncating any torn
  tail, with bit-for-bit identical truths on the replayed batches
  (including after mid-compaction crashes);
* :class:`WorkItem` — the serialisable work-item format the log (and
  the multi-process shard workers) move around.

Logging cost and recovery speed are measured by ``python3
benchmarks/e2e/run.py --workload bulk_durable`` (and
``device_paced_durable`` for ack latency under sync commit).
"""

from repro.durable.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.durable.compaction import (
    CompactionInterrupted,
    CompactionReport,
    compact_directory,
)
from repro.durable.daemon import CompactionPolicy, CompactionTrigger
from repro.durable.manager import (
    DurabilityConfig,
    DurabilityManager,
    FORMAT_VERSION,
)
from repro.durable.records import RecordError, WalRecord, WorkItem
from repro.durable.recovery import (
    RecordApplier,
    RecoveredService,
    RecoveryError,
    RecoveryManager,
    RecoveryReport,
)
from repro.durable.stream import TailGapError, WalTailReader
from repro.durable.wal import (
    FSYNC_POLICIES,
    WalCorruptionError,
    WalError,
    WalScan,
    WriteAheadLog,
    load_compaction_manifest,
    read_wal,
    repair_compaction,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "CompactionInterrupted",
    "CompactionPolicy",
    "CompactionReport",
    "CompactionTrigger",
    "DurabilityConfig",
    "DurabilityManager",
    "FORMAT_VERSION",
    "FSYNC_POLICIES",
    "RecordApplier",
    "RecordError",
    "RecoveredService",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "TailGapError",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "WalScan",
    "WalTailReader",
    "WorkItem",
    "WriteAheadLog",
    "compact_directory",
    "load_compaction_manifest",
    "read_wal",
    "repair_compaction",
]
