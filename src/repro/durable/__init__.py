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
  the multi-process shard workers) move around; a batch is written by
  one encoder and read by one decoder
  (:func:`~repro.durable.records.batch_encoder`,
  :func:`~repro.durable.records.decode_batch`).

Logging cost and recovery speed are measured by ``python3
benchmarks/e2e/run.py --workload bulk_durable`` (and
``device_paced_durable`` for ack latency under sync commit).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Checkpoint": "repro.durable.checkpoint",
    "CheckpointError": "repro.durable.checkpoint",
    "CheckpointStore": "repro.durable.checkpoint",
    "CompactionPolicy": "repro.durable.daemon",
    "CompactionReport": "repro.durable.compaction",
    "CompactionTrigger": "repro.durable.daemon",
    "DurabilityConfig": "repro.durable.manager",
    "DurabilityManager": "repro.durable.manager",
    "FORMAT_VERSION": "repro.durable.manager",
    "FSYNC_POLICIES": "repro.durable.wal",
    "RecordApplier": "repro.durable.recovery",
    "RecordError": "repro.durable.records",
    "RecoveredService": "repro.durable.recovery",
    "RecoveryError": "repro.durable.recovery",
    "RecoveryManager": "repro.durable.recovery",
    "RecoveryReport": "repro.durable.recovery",
    "TailGapError": "repro.durable.stream",
    "WalCorruptionError": "repro.durable.wal",
    "WalError": "repro.durable.wal",
    "WalRecord": "repro.durable.records",
    "WalScan": "repro.durable.wal",
    "WalTailReader": "repro.durable.stream",
    "WorkItem": "repro.durable.records",
    "WriteAheadLog": "repro.durable.wal",
    "compact_directory": "repro.durable.compaction",
    "load_compaction_manifest": "repro.durable.wal",
    "read_wal": "repro.durable.wal",
    "repair_compaction": "repro.durable.wal",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
