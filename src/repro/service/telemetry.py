"""Service-side telemetry: the obs registry wired into the pipeline.

:class:`ServiceTelemetry` is what one
:class:`~repro.service.ingest.IngestService` reports into.  It owns

* the service's :class:`~repro.obs.registry.MetricRegistry` (or the
  null registry when the service runs with ``obs=False``), with every
  hot-path histogram child pre-bound per shard — an observation is an
  index into a list, never a dict lookup;
* the :class:`~repro.obs.tracing.TraceCollector` for sampled
  per-submission traces;
* the cache of remote registry snapshots shipped by workers / shard
  hosts over the STATS RPC — refreshed only from the pump thread
  (where the frame protocol's strict ordering lives), read by the
  exposition thread;
* :meth:`snapshot`, which assembles the full service view: live
  histogram state, admission counters synthesised from
  :class:`~repro.service.ingest.ServiceStats` (the hot path pays one
  plain ``+=`` and nothing else), per-shard queue/processing gauges,
  live WAL counters, fabric supervision/RPC timings, and the merged
  remote snapshots tagged ``proc="workerN"``.

Metric names are documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs.registry import (
    NULL_REGISTRY,
    MetricRegistry,
    RegistrySnapshot,
    series_key,
)
from repro.obs.tracing import TraceCollector

#: Rejection reasons, in the order ServiceStats tracks them.
REJECT_REASONS = (
    "unknown-campaign",
    "unknown-object",
    "invalid-value",
    "capacity",
    "budget",
    "overflow",
)


class ServiceTelemetry:
    """All observability state of one ingestion service."""

    def __init__(
        self,
        num_shards: int,
        *,
        enabled: bool = True,
        trace_sample_every: int = 0,
    ) -> None:
        self.enabled = enabled
        self.num_shards = num_shards
        self.registry = MetricRegistry() if enabled else NULL_REGISTRY
        self.traces = TraceCollector(trace_sample_every)
        registry = self.registry
        queue_wait = registry.histogram(
            "repro_queue_wait_seconds",
            "time a work item spent queued on its shard",
            labels=("shard",),
        )
        batch_flush = registry.histogram(
            "repro_batch_flush_seconds",
            "micro-batch flush latency: WAL append + aggregator ingest",
            labels=("shard",),
        )
        # Pre-bound children, indexed by shard: the pump loop's only
        # telemetry cost is a list index plus a frexp.
        self.queue_wait = [
            queue_wait.labels(shard=i) for i in range(num_shards)
        ]
        self.batch_flush = [
            batch_flush.labels(shard=i) for i in range(num_shards)
        ]
        self.snapshot_read = registry.histogram(
            "repro_snapshot_read_seconds",
            "end-to-end snapshot() latency (pump + refresh + view)",
        )
        self.wal_commit = registry.histogram(
            "repro_wal_commit_seconds",
            "WAL group-commit latency (write+flush+fsync per group)",
            labels=("fsync",),
        )
        self.failover = registry.histogram(
            "repro_fabric_failover_seconds",
            "supervised shard-host restart+replay duration",
        )
        self.rehome = registry.histogram(
            "repro_fabric_rehome_seconds",
            "journal-sourced shard re-home duration after a permanent "
            "host loss",
        )
        #: Per-shard admission tallies (satellite: per-shard
        #: accepted/rejected): plain ints, bumped on the submit path.
        self.shard_claims_accepted = [0] * num_shards
        self.shard_claims_rejected = [0] * num_shards
        # WAL drain cursor: groups already folded into the histogram.
        self._wal_groups_seen = 0
        self._wal_commit_child = None
        #: worker_id -> RegistrySnapshot, refreshed from the pump
        #: thread, read (reference-swap only) by the scrape thread.
        self.remote_snapshots: dict[int, RegistrySnapshot] = {}
        self._failovers_seen = 0
        self._rehomes_seen = 0

    # ------------------------------------------------------------------
    # Pump-thread hooks (hot path).
    def on_dequeue(self, shard_index: int, now: float, stamps: list) -> None:
        """A pump dequeued the items enqueued at ``stamps``: a wait each."""
        histogram = self.queue_wait[shard_index]
        if len(stamps) >= 64:
            histogram.observe_many(now - np.array(stamps))
        else:
            # Below ~70 items (a bulk pump moves a few big chunks) the
            # loop beats the vectorised pass's fixed ~15 us.
            for stamp in stamps:
                histogram.observe(now - stamp)

    def on_batch(
        self,
        shard_index: int,
        state,
        elapsed: float,
        lsn: Optional[int],
    ) -> None:
        """One micro-batch was logged and ingested/shipped."""
        self.batch_flush[shard_index].observe(elapsed)
        pending = state.pending_traces
        if pending:
            for trace in pending:
                self.traces.on_flushed(trace, lsn)
            pending.clear()

    # ------------------------------------------------------------------
    # WAL / fabric sampling (pump thread, off the per-claim path).
    def drain_wal(self, wal, fsync: str) -> None:
        """Fold new group-commit latencies into the fsync-mode histogram.

        A cursor over ``wal.groups_committed`` keeps this incremental:
        no WAL hot-path change, no double counting, and only the new
        samples are read — indexed from the right end of the ring,
        never copied.  The latency deque is bounded, so a huge burst
        between drains can lose samples — the count/sum totals still
        come from the WAL's own counters at snapshot time.
        """
        total = wal.groups_committed
        new = total - self._wal_groups_seen
        if new <= 0:
            return
        if self._wal_commit_child is None:
            self._wal_commit_child = self.wal_commit.labels(fsync=fsync)
        observe = self._wal_commit_child.observe
        latencies = wal.commit_latencies
        for back in range(min(new, len(latencies)), 0, -1):
            observe(latencies[-back])
        self._wal_groups_seen = total

    def on_failover(self, supervisor) -> None:
        """Fold any newly measured failovers/re-homes into histograms."""
        seconds = supervisor.failover_seconds
        for value in seconds[self._failovers_seen:]:
            self.failover.observe(value)
        self._failovers_seen = len(seconds)
        rehomes = supervisor.rehome_seconds
        for value in rehomes[self._rehomes_seen:]:
            self.rehome.observe(value)
        self._rehomes_seen = len(rehomes)

    def refresh_remote(self, pool) -> None:
        """Pull worker/host registry snapshots (pump thread only).

        The scrape thread must never issue frames — it would interleave
        with the data plane — so remote stats are polled here and
        cached; a scrape between refreshes sees the previous capture.
        """
        if not self.enabled:
            return
        for handle in pool.handles:
            try:
                self.remote_snapshots[handle.worker_id] = handle.metrics()
            except Exception:
                # Telemetry must never poison the data plane: a handle
                # mid-crash will be surfaced by the next check()/pump.
                continue

    # ------------------------------------------------------------------
    def snapshot(self, service) -> RegistrySnapshot:
        """The full service view (exposition-thread safe: no RPCs)."""
        snap = self.registry.snapshot()
        stats = service.stats
        add = snap.add
        add("counter", series_key("repro_submissions_total"),
            float(stats.submissions))
        add("counter", series_key("repro_snapshot_reads_total"),
            float(stats.snapshot_reads))
        add("counter", series_key("repro_snapshot_reads_unchanged_total"),
            float(stats.snapshot_reads_unchanged))
        add("counter", series_key("repro_traces_sampled_total"),
            float(len(self.traces)))
        for reason, count in (
            ("unknown-campaign", stats.rejected_unknown_campaign),
            ("unknown-object", stats.rejected_unknown_object),
            ("invalid-value", stats.rejected_invalid_value),
            ("capacity", stats.rejected_capacity),
            ("budget", stats.rejected_budget),
            ("overflow", stats.rejected_overflow),
        ):
            add(
                "counter",
                series_key(
                    "repro_claims_rejected_total", {"reason": reason}
                ),
                float(count),
            )
        for i, shard in enumerate(service._shards):
            labels = {"shard": str(i)}
            add("counter",
                series_key("repro_claims_accepted_total", labels),
                float(self.shard_claims_accepted[i]))
            add("counter",
                series_key("repro_shard_claims_rejected_total", labels),
                float(self.shard_claims_rejected[i]))
            add("counter",
                series_key("repro_claims_processed_total", labels),
                float(shard.claims_processed))
            add("gauge",
                series_key("repro_queue_depth", labels),
                float(shard.queue_depth))
        durability = service.durability
        if durability is not None:
            wal = durability.wal
            add("counter", series_key("repro_wal_appends_total"),
                float(wal.records_written))
            add("counter", series_key("repro_wal_commit_groups_total"),
                float(wal.groups_committed))
            add("counter", series_key("repro_wal_syncs_total"),
                float(wal.syncs))
            add("gauge", series_key("repro_wal_durable_lag"),
                float(wal.last_lsn - wal.durable_lsn))
            add("counter", series_key("repro_wal_commit_seconds_total"),
                float(wal.commit_seconds))
            trigger = durability.compaction_trigger
            if trigger is not None:
                stats = trigger.stats()
                add("counter",
                    series_key("repro_compaction_policy_triggers_total"),
                    float(stats["policy_triggers"]))
                add("counter",
                    series_key("repro_compaction_runs_total"),
                    float(stats["compactions_run"]))
                add("counter",
                    series_key("repro_compaction_bytes_reclaimed_total"),
                    float(stats["bytes_reclaimed"]))
                add("counter",
                    series_key("repro_compaction_evaluations_total"),
                    float(stats["evaluations"]))
        replication = service.replication
        if replication is not None:
            repl = replication.stats()
            add("counter",
                series_key("repro_replication_semi_sync_timeouts_total"),
                float(repl["semi_sync_timeouts"]))
            for standby in repl["standbys"]:
                labels = {"standby": str(standby["index"])}
                add("gauge",
                    series_key("repro_replication_lag_lsn", labels),
                    float(standby["lag_lsn"]))
                add("gauge",
                    series_key("repro_replication_lag_seconds", labels),
                    float(standby["lag_seconds"]))
                add("gauge",
                    series_key("repro_replication_connected", labels),
                    1.0 if standby["connected"] else 0.0)
                add("counter",
                    series_key(
                        "repro_replication_records_shipped_total", labels
                    ),
                    float(standby["records_shipped"]))
                add("counter",
                    series_key(
                        "repro_replication_bytes_shipped_total", labels
                    ),
                    float(standby["bytes_shipped"]))
                add("counter",
                    series_key(
                        "repro_replication_groups_shipped_total", labels
                    ),
                    float(standby["groups_shipped"]))
                add("counter",
                    series_key(
                        "repro_replication_checkpoints_shipped_total",
                        labels,
                    ),
                    float(standby["checkpoints_shipped"]))
                add("counter",
                    series_key(
                        "repro_replication_reconnects_total", labels
                    ),
                    float(standby["reconnects"]))
            for link in replication.links:
                _add_histogram(snap, link.ship_histogram)
        # Chaos injection counters (zero-cardinality when no plan is
        # installed; one counter per fault point while one is).
        from repro.chaos import points as _chaos_points

        for point, count in sorted(_chaos_points.injected_counts().items()):
            add("counter",
                series_key(
                    "repro_chaos_faults_injected_total", {"point": point}
                ),
                float(count))
        # The detached auto_failover watchdog shows up as an armed gauge;
        # its counters live in its own process.
        watchdog_proc = service.watchdog_process
        if watchdog_proc is not None:
            add("gauge", series_key("repro_watchdog_armed"),
                1.0 if watchdog_proc.is_alive() else 0.0)
        refreshes = 0
        refresh_seconds = 0.0
        for shard in service._shards:
            for state in shard.campaigns.values():
                aggregator = state.aggregator
                count = getattr(aggregator, "refreshes", None)
                if count is None:
                    continue  # remote proxy: the worker reports its own
                refreshes += int(count)
                refresh_seconds += float(
                    getattr(aggregator, "refresh_seconds", 0.0)
                )
        add("counter", series_key("repro_refreshes_total"),
            float(refreshes))
        add("counter", series_key("repro_refresh_seconds_total"),
            refresh_seconds)
        pool = service.worker_pool
        if pool is not None:
            for handle in pool.handles:
                _add_histogram(snap, handle.rpc_histogram)
            supervisor = pool.supervisor
            if supervisor is not None:
                add("counter",
                    series_key("repro_fabric_restarts_total"),
                    float(supervisor.restarts))
                supervision = supervisor.stats()
                add("counter",
                    series_key("repro_fabric_captures_total"),
                    float(supervision["captures"]))
                add("counter",
                    series_key("repro_fabric_capture_bytes_total"),
                    float(supervision["capture_bytes_total"]))
                add("gauge", series_key("repro_fabric_journal_bytes"),
                    float(supervision["journal_bytes"]))
                lost = supervisor.lost_hosts
                add("gauge", series_key("repro_degraded_hosts"),
                    float(len(lost)))
                add("counter",
                    series_key("repro_fabric_hosts_lost_total"),
                    float(len(lost)))
                add("counter",
                    series_key("repro_fabric_rehomes_total"),
                    float(supervisor.rehomes))
            add("gauge", series_key("repro_placement_epoch"),
                float(pool.placement.epoch))
            for worker_id, remote in list(self.remote_snapshots.items()):
                snap = snap.merge(
                    remote.relabel(proc=f"worker{worker_id}")
                )
        return snap


def _add_histogram(snap: RegistrySnapshot, hist) -> None:
    """Fold the cumulative state of a histogram kept outside the
    registry (per worker handle, per standby link) into ``snap``."""
    if hist.count:
        snap.add(
            "histogram",
            hist.key,
            {"count": hist.count, "sum": hist.sum, "counts": hist.counts},
        )
