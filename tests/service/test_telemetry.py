"""Service telemetry tests: registry wiring, stats surface, tracing."""

import json
from collections import deque
from types import SimpleNamespace

import pytest

from repro.crowdsensing.messages import ClaimSubmission
from repro.durable.manager import DurabilityConfig, DurabilityManager
from repro.privacy.ldp import LDPGuarantee
from repro.service import BudgetLedger, IngestService, ServiceConfig, Topology
from repro.service.telemetry import ServiceTelemetry


def make_service(**overrides) -> IngestService:
    defaults = dict(num_shards=2, max_batch=8, queue_capacity=16)
    defaults.update(overrides)
    durability = defaults.pop("durability", None)
    return IngestService(
        ServiceConfig(**defaults),
        topology=Topology.in_process(durability=durability),
    )


def sub(campaign="c1", user="u1", objects=("o0", "o1"), values=(1.0, 2.0)):
    return ClaimSubmission(
        campaign_id=campaign, user_id=user,
        object_ids=tuple(objects), values=tuple(values),
    )


def fill(service, campaign="c1", users=6):
    service.register_campaign(campaign, ("o0", "o1"), max_users=users)
    for i in range(users):
        assert service.submit(sub(campaign=campaign, user=f"u{i}")).ok
    service.flush()


class TestMetricsSnapshot:
    def test_core_families_present_and_consistent(self):
        service = make_service()
        fill(service)
        snap = service.metrics_snapshot()
        assert snap.value("repro_submissions_total") == 6
        assert snap.family_total("repro_claims_accepted_total") == 12
        assert snap.family_total("repro_claims_processed_total") == 12
        # Latency histograms observed real work.
        flush_count = sum(
            h["count"]
            for (name, _), h in snap.histograms.items()
            if name == "repro_batch_flush_seconds"
        )
        assert flush_count >= 1
        wait_count = sum(
            h["count"]
            for (name, _), h in snap.histograms.items()
            if name == "repro_queue_wait_seconds"
        )
        assert wait_count >= 1

    def test_rejections_counted_by_reason_and_shard(self):
        service = make_service()
        service.register_campaign("c1", ("o0", "o1"), max_users=1)
        assert service.submit(sub(user="u1")).ok
        assert service.submit(sub(user="u2")).reason == "capacity"
        assert service.submit(sub(objects=("o0", "oX"))).reason == (
            "unknown-object"
        )
        snap = service.metrics_snapshot()
        assert snap.value("repro_claims_rejected_total", reason="capacity") == 2
        assert snap.value(
            "repro_claims_rejected_total", reason="unknown-object"
        ) == 2
        assert snap.family_total("repro_shard_claims_rejected_total") == 4

    def test_queue_depth_gauges_track_live_queues(self):
        service = make_service(max_batch=64)
        service.register_campaign("c1", ("o0", "o1"), max_users=8)
        for i in range(4):
            service.submit(sub(user=f"u{i}"))
        snap = service.metrics_snapshot()
        depths = [
            v
            for (name, _), v in snap.gauges.items()
            if name == "repro_queue_depth"
        ]
        assert sum(depths) == sum(service.queue_depths()) > 0

    def test_disabled_obs_keeps_stats_but_drops_registry(self):
        service = make_service(obs=False)
        fill(service)
        assert not service.telemetry.enabled
        assert service.stats.claims_accepted == 12
        snap = service.metrics_snapshot()
        # Synthesised counters still surface; registry-native series
        # (histograms) are gone.
        assert snap.value("repro_submissions_total") == 6
        assert snap.histograms == {}

    def test_snapshot_read_latency_observed(self):
        service = make_service()
        fill(service)
        service.snapshot("c1")
        service.snapshot("c1")  # unchanged: counted and timed all the same
        snap = service.metrics_snapshot()
        hist = snap.histograms.get(("repro_snapshot_read_seconds", ()))
        assert hist is not None and hist["count"] == 2
        assert snap.value("repro_snapshot_reads_total") == 2
        assert snap.value("repro_snapshot_reads_unchanged_total") == 1

    def test_snapshot_is_json_serialisable(self):
        service = make_service()
        fill(service)
        payload = json.dumps(service.metrics_snapshot().to_dict())
        assert "repro_submissions_total" in payload


class TestStatsSurface:
    def test_as_dict_exposes_queue_depths_and_per_shard_counts(self):
        service = make_service()
        fill(service)
        stats = service.stats.as_dict()
        assert stats["queue_depths"] == service.queue_depths()
        shards = stats["shards"]
        assert len(shards) == 2
        assert sum(s["accepted"] for s in shards) == 12
        assert sum(s["processed"] for s in shards) == 12
        for entry in shards:
            assert set(entry) >= {
                "accepted", "rejected", "processed", "queue_depth",
            }

    def test_wal_counters_read_live_and_survive_close(self, tmp_path):
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path, fsync="never")
        )
        service = make_service(durability=manager)
        service.register_campaign("c1", ("o0", "o1"), max_users=8)
        for i in range(8):
            service.submit(sub(user=f"u{i}"))
        # No flush/pump yet: the property must read the live WAL, not a
        # stale sample (batches may not have hit the log yet, but after
        # an explicit flush the live view is immediate).
        service.flush()
        live = service.stats.wal_appends
        assert live == manager.wal.records_written > 0
        assert service.stats.wal_commit_groups == manager.wal.groups_committed
        service.close()
        stats = service.stats
        # After close the caller's (still open) log keeps answering.
        assert stats.wal_appends == live
        assert stats.as_dict()["wal_appends"] == live
        manager.close()

    def test_wal_counters_after_close_are_the_closed_logs(self, tmp_path):
        """A deployment-built manager closes with the service; its log's
        counters stay readable, and the stats read them, not a sample
        taken before the closing drain."""
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=8),
            ledger=BudgetLedger(epsilon_cap=10.0),
            topology=Topology.in_process(
                durability=DurabilityConfig(directory=tmp_path, fsync="batch")
            ),
        )
        service.register_campaign(
            "c1", ("o0", "o1"), max_users=8,
            cost=LDPGuarantee(epsilon=1.0, delta=0.0),
        )
        for i in range(4):
            assert service.submit(sub(user=f"u{i}")).ok
        service.flush()
        # A charge record staged after the last sync: close drains it.
        assert service.submit(sub(user="u0")).ok
        groups_before_close = service.durability.wal.groups_committed
        service.close()
        wal = service.durability.wal
        assert wal.closed
        assert wal.groups_committed == groups_before_close + 1
        stats = service.stats
        assert stats.wal_appends == wal.records_written > 0
        assert stats.wal_commit_groups == wal.groups_committed
        assert stats.wal_commit_seconds == wal.commit_seconds
        assert stats.wal_durable_lag == wal.last_lsn - wal.durable_lsn == 0
        assert stats.as_dict()["wal_commit_groups"] == wal.groups_committed

    def test_wal_commit_histogram_labelled_by_fsync_mode(self, tmp_path):
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path, fsync="batch")
        )
        service = make_service(durability=manager)
        fill(service)
        snap = service.metrics_snapshot()
        hist = snap.histograms.get(
            ("repro_wal_commit_seconds", (("fsync", "batch"),))
        )
        assert hist is not None and hist["count"] >= 1
        assert snap.value("repro_wal_commit_groups_total") >= 1
        service.close()
        manager.close()

    def test_wal_drain_stays_exact_across_ring_wrap_around(self):
        class Ring(deque):
            def __iter__(self):
                raise AssertionError("drain_wal copied the latency ring")

        wal = SimpleNamespace(
            groups_committed=0, commit_latencies=Ring(maxlen=8)
        )
        telemetry = ServiceTelemetry(1)
        samples = []
        # Bursts up to the ring's size between drains; the ring wraps
        # many times over.  Dyadic values keep every float sum exact.
        for burst in (1, 3, 8, 5, 0, 2, 7, 8, 1, 6):
            for _ in range(burst):
                samples.append((len(samples) + 1) / 1024)
                wal.commit_latencies.append(samples[-1])
            wal.groups_committed += burst
            telemetry.drain_wal(wal, "batch")
        hist = telemetry.registry.snapshot().histograms[
            ("repro_wal_commit_seconds", (("fsync", "batch"),))
        ]
        assert hist["count"] == len(samples) == 41
        assert hist["sum"] == sum(samples)


class TestTracing:
    def test_volatile_traces_complete_at_flush(self):
        service = make_service(trace_sample_every=1)
        fill(service)
        traces = service.telemetry.traces
        assert len(traces) == 6
        for record in traces.records():
            offsets = record["stage_offsets_s"]
            assert record["lsn"] is None
            assert offsets["durable"] == offsets["flush"]
            assert offsets["enqueue"] is not None

    def test_durable_traces_resolve_at_watermark(self, tmp_path):
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path, fsync="batch")
        )
        service = make_service(trace_sample_every=1, durability=manager)
        fill(service)
        service.pump()  # drain + resolve against the durable watermark
        traces = service.telemetry.traces
        assert len(traces) == 6
        for record in traces.records():
            assert record["lsn"] is not None
            assert record["stage_offsets_s"]["durable"] is not None
        service.close()
        manager.close()

    def test_sampling_disabled_by_default(self):
        service = make_service()
        fill(service)
        assert len(service.telemetry.traces) == 0

    def test_invalid_sample_every_rejected(self):
        with pytest.raises(ValueError):
            make_service(trace_sample_every=-1)
