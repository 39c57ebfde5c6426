"""Policy-driven compaction: policy, trigger, manager wiring.

The pump thread both decides and runs a compaction inside
``after_pump`` — no thread of its own — so the tests split the same
way: policy evaluation against real segment files, the trigger's
cadence and floor on a caller-supplied clock, and the full loop through
a live :class:`IngestService`.
"""

import threading
import time

import pytest

from repro.durable import (
    CompactionPolicy,
    CompactionReport,
    CompactionTrigger,
    DurabilityConfig,
    DurabilityManager,
    WriteAheadLog,
)
from repro.durable.records import BATCH
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.loadgen import LoadGenerator
from repro.service.topology import Topology

CHUNK = 128


def write_segments(directory, *, records=20, payload=b"x" * 200):
    with WriteAheadLog(directory, fsync="never") as wal:
        for _ in range(records):
            wal.append(BATCH, payload)
        wal.sync()


# --------------------------------------------------------------- policy
class TestCompactionPolicy:
    def test_both_triggers_disabled_rejected(self):
        with pytest.raises(ValueError, match="never trigger"):
            CompactionPolicy(
                max_wal_bytes=None, max_record_age_seconds=None
            )

    def test_non_positive_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_wal_bytes=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_record_age_seconds=-1.0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_interval_seconds=0.0)

    def test_empty_directory_never_triggers(self, tmp_path):
        policy = CompactionPolicy(max_wal_bytes=1)
        assert policy.evaluate(tmp_path, time.time()) is None

    def test_size_trigger(self, tmp_path):
        write_segments(tmp_path)
        policy = CompactionPolicy(max_wal_bytes=512)
        reason = policy.evaluate(tmp_path, time.time())
        assert reason is not None and "wal size" in reason
        roomy = CompactionPolicy(max_wal_bytes=1024 * 1024 * 1024)
        assert roomy.evaluate(tmp_path, time.time()) is None

    def test_age_trigger(self, tmp_path):
        write_segments(tmp_path)
        policy = CompactionPolicy(
            max_wal_bytes=None, max_record_age_seconds=60.0
        )
        now = time.time()
        assert policy.evaluate(tmp_path, now) is None
        reason = policy.evaluate(tmp_path, now + 3600.0)
        assert reason is not None and "oldest segment" in reason


# -------------------------------------------------------------- trigger
class TestCompactionDaemon:
    """:class:`CompactionTrigger` on the pump thread's clock: callers
    pass monotonic time, so cadence and floor need no sleeping."""

    def trigger(
        self, directory, *, min_interval_seconds=10.0, check_interval_seconds=1.0
    ):
        policy = CompactionPolicy(
            max_wal_bytes=512,
            min_interval_seconds=min_interval_seconds,
            check_interval_seconds=check_interval_seconds,
        )
        trigger = CompactionTrigger(directory, policy)
        return trigger, time.monotonic()

    def test_trigger_take_record_lifecycle(self, tmp_path):
        write_segments(tmp_path)
        trigger, t0 = self.trigger(tmp_path)
        reason = trigger.due(t0 + 10.0)
        assert reason is not None and "wal size" in reason
        stats = trigger.stats()
        assert stats["policy_triggers"] == 1
        assert stats["last_reason"] == reason
        assert "pending" not in stats  # nothing waits between pumps
        trigger.record_compaction(
            CompactionReport(str(tmp_path), bytes_before=5000, bytes_after=904),
            t0 + 10.5,
        )
        stats = trigger.stats()
        assert stats["compactions_run"] == 1
        assert stats["bytes_reclaimed"] == 4096

    def test_min_interval_floors_retriggering(self, tmp_path):
        write_segments(tmp_path)
        trigger, t0 = self.trigger(tmp_path)
        # The floor runs from construction, then from each compaction.
        assert trigger.due(t0 + 5.0) is None
        assert trigger.due(t0 + 10.0) is not None
        trigger.record_compaction(CompactionReport(str(tmp_path)), t0 + 10.0)
        for dt in (11.0, 12.0, 19.0):
            assert trigger.due(t0 + dt) is None  # still over threshold
        assert trigger.due(t0 + 20.0) is not None
        stats = trigger.stats()
        assert stats["policy_triggers"] == 2
        assert stats["evaluations"] == 6

    def test_at_most_one_evaluation_per_check_interval(self, tmp_path):
        trigger, t0 = self.trigger(
            tmp_path, min_interval_seconds=0.001, check_interval_seconds=1.0
        )
        assert trigger.due(t0 + 0.5) is None  # first check is one interval in
        assert trigger.evaluations == 0
        for i in range(1000):  # a thousand pumps inside three intervals
            trigger.due(t0 + 1.0 + i * 0.003)
        assert trigger.evaluations == 3


# ------------------------------------------------------- manager wiring
class TestManagerWiring:
    def test_policy_compaction_runs_on_the_pump(self, tmp_path):
        gen = LoadGenerator(
            "cd-c0", num_users=40, num_objects=12, random_state=3
        )
        config = DurabilityConfig(
            directory=tmp_path / "wal",
            fsync="never",
            checkpoint_every_claims=4 * CHUNK,
            compaction=CompactionPolicy(
                max_wal_bytes=16 * 1024,
                min_interval_seconds=0.05,
                check_interval_seconds=0.02,
            ),
        )
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=CHUNK),
            topology=Topology.in_process(durability=config),
        )
        try:
            manager = service.durability
            trigger = manager.compaction_trigger
            assert trigger is not None
            service.register_campaign(
                gen.campaign_id,
                gen.object_ids,
                max_users=40,
                user_ids=gen.user_ids,
            )
            chunks = gen.column_chunks(64 * CHUNK, chunk_size=CHUNK)
            deadline = time.monotonic() + 60.0
            compacted = False
            for chunk in chunks:
                service.submit_columns(
                    chunk.campaign_id,
                    chunk.user_slots,
                    chunk.object_slots,
                    chunk.values,
                )
                service.pump()
                if trigger.stats()["compactions_run"] >= 1:
                    compacted = True
                    break
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert compacted, trigger.stats()
            stats = trigger.stats()
            assert stats["policy_triggers"] >= 1
            assert stats["bytes_reclaimed"] > 0
            assert "wal size" in stats["last_reason"]
            # The service after compaction still aggregates sanely.
            snapshot = service.snapshot(gen.campaign_id)
            assert snapshot.claims_ingested > 0
        finally:
            service.close()

    def test_no_policy_no_daemon(self, tmp_path):
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path / "wal")
        )
        try:
            assert manager.compaction_trigger is None
        finally:
            manager.close()

    def test_policy_starts_no_thread(self, tmp_path):
        config = DurabilityConfig(
            directory=tmp_path / "wal",
            compaction=CompactionPolicy(max_wal_bytes=1024),
        )
        before = set(threading.enumerate())
        service = IngestService(
            ServiceConfig(num_shards=1, max_batch=CHUNK),
            topology=Topology.in_process(durability=config),
        )
        try:
            assert service.durability.compaction_trigger is not None
            started = set(threading.enumerate()) - before
            assert not started, [thread.name for thread in started]
        finally:
            service.close()
