"""WAL commit path: round trip, durable watermark, close, crashes.

The module and class names come from the asynchronous commit mode the
WAL once had; every test here runs the one path, where the calling
thread drains staged groups at ``sync()``, ``close()``, per append under
``always``, or at the staging high-water mark.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.durable import records as rec
from repro.durable.wal import (
    COMMIT_LATENCY_WINDOW,
    WalError,
    WriteAheadLog,
    list_segments,
    read_wal,
)

PAYLOAD = rec.encode_json_payload({"campaign_id": "c"})


class TestAsyncRoundTrip:
    @pytest.mark.parametrize("fsync", ["never", "batch", "always"])
    def test_append_sync_read_back(self, tmp_path, fsync):
        with WriteAheadLog(tmp_path, fsync=fsync) as wal:
            lsns = [wal.append(rec.REFRESH, PAYLOAD) for _ in range(40)]
            wal.sync()
            assert wal.durable_lsn == lsns[-1]
        scan = read_wal(tmp_path)
        assert [r.lsn for r in scan.records] == lsns
        for record in scan.records:
            assert record.decode()["campaign_id"] == "c"

    def test_close_drains_without_explicit_sync(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch")
        for _ in range(25):
            wal.append(rec.REFRESH, PAYLOAD)
        wal.close()
        assert [r.lsn for r in read_wal(tmp_path).records] == list(
            range(1, 26)
        )

    def test_rotation(self, tmp_path):
        with WriteAheadLog(
            tmp_path, fsync="never", max_segment_bytes=256
        ) as wal:
            for _ in range(30):
                wal.append(rec.REFRESH, PAYLOAD)
            wal.sync()
        assert len(list_segments(tmp_path)) > 1
        assert [r.lsn for r in read_wal(tmp_path).records] == list(
            range(1, 31)
        )

    def test_multi_part_payload_identical_to_concatenated(self, tmp_path):
        users = np.arange(6, dtype=np.int64)
        objects = np.arange(6, dtype=np.int64)
        values = np.linspace(0.0, 1.0, 6)
        item = rec.WorkItem(
            campaign_id="camp",
            user_slots=users,
            object_slots=objects,
            values=values,
        )
        parts = rec.encode_batch_parts(
            rec.campaign_id_prefix("camp"), users, objects, values
        )
        assert b"".join(bytes(p) for p in parts) == item.to_bytes()
        with WriteAheadLog(tmp_path, fsync="batch") as wal:
            wal.append(rec.BATCH, parts)
            wal.sync()
        decoded = read_wal(tmp_path).records[0].decode()
        assert decoded.campaign_id == "camp"
        assert np.array_equal(decoded.values, values)

    def test_multi_part_payload_sync_mode_too(self, tmp_path):
        users = np.arange(4, dtype=np.int64)
        values = np.full(4, 2.5)
        parts = rec.encode_batch_parts(
            rec.campaign_id_prefix("s"), users, users, values
        )
        with WriteAheadLog(tmp_path, fsync="batch") as wal:
            wal.append(rec.BATCH, parts)
            wal.sync()
        decoded = read_wal(tmp_path).records[0].decode()
        assert np.array_equal(decoded.values, values)


class TestDurableAck:
    def test_sync_mode_watermark_advances_at_sync_points(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="batch") as wal:
            assert wal.durable_lsn == 0
            for _ in range(10):
                lsn = wal.append(rec.REFRESH, PAYLOAD)
            assert wal.durable_lsn == 0
            wal.sync()
            assert wal.durable_lsn == lsn
            wal.sync()  # nothing staged: no group, watermark unchanged
            assert wal.durable_lsn == lsn
            assert wal.groups_committed == 1
            assert wal.commit_seconds >= 0.0
            assert len(wal.commit_latencies) == 1
            assert wal.commit_latencies.maxlen == COMMIT_LATENCY_WINDOW

    def test_watermark_monotone_and_ackable(self, tmp_path):
        """Across appends and sync points the watermark never falls,
        never passes the last appended LSN, and a sync acks all of it."""
        seen = []
        with WriteAheadLog(tmp_path, fsync="batch") as wal:
            for round_ in range(5):
                for _ in range(round_ + 1):
                    wal.append(rec.REFRESH, PAYLOAD)
                    seen.append(wal.durable_lsn)
                    assert wal.durable_lsn <= wal.last_lsn
                wal.sync()
                assert wal.durable_lsn == wal.last_lsn
                seen.append(wal.durable_lsn)
        assert seen == sorted(seen)
        assert seen[-1] == 15

    def test_sync_mode_always_durable_on_append(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            lsn = wal.append(rec.REFRESH, PAYLOAD)
            assert wal.durable_lsn == lsn


class TestWriterFailure:
    def test_io_error_surfaces_on_next_sync_and_close(
        self, tmp_path, monkeypatch
    ):
        wal = WriteAheadLog(tmp_path, fsync="batch")

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.durable.wal._fdatasync", boom)
        wal.append(rec.REFRESH, PAYLOAD)
        with pytest.raises(WalError, match="group commit failed"):
            wal.sync()
        # The error is sticky: appends refuse too, and close re-raises.
        with pytest.raises(WalError, match="group commit failed"):
            for _ in range(100):
                wal.append(rec.REFRESH, PAYLOAD)
        with pytest.raises(WalError, match="group commit failed"):
            wal.close()

    def test_close_raises_once_then_no_ops(self, tmp_path, monkeypatch):
        """A failed drain surfaces on the *first* close only: the
        ``finally`` blocks unwinding above it close again and must not
        re-raise."""
        wal = WriteAheadLog(tmp_path, fsync="batch")

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.durable.wal._fdatasync", boom)
        wal.append(rec.REFRESH, PAYLOAD)
        with pytest.raises(WalError, match="group commit failed"):
            wal.close()
        wal.close()
        wal.close()

    def test_clean_double_close_is_no_op(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch")
        wal.append(rec.REFRESH, PAYLOAD)
        wal.close()
        wal.close()

    def test_manager_close_raises_once_then_no_ops(
        self, tmp_path, monkeypatch
    ):
        from repro.durable import DurabilityConfig, DurabilityManager

        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path, fsync="batch")
        )

        def boom(fd):
            raise OSError("disk gone")

        manager.wal.append(rec.REFRESH, PAYLOAD)
        monkeypatch.setattr("repro.durable.wal._fdatasync", boom)
        manager.wal.append(rec.REFRESH, PAYLOAD)
        with pytest.raises(WalError, match="group commit failed"):
            manager.close()
        manager.close()
        manager.close()

    @pytest.mark.parametrize("synced", [False, True])
    def test_append_after_close_refused(self, tmp_path, synced):
        """Refused whether close() drained the record or a sync had."""
        wal = WriteAheadLog(tmp_path, fsync="batch")
        wal.append(rec.REFRESH, PAYLOAD)
        if synced:
            wal.sync()
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append(rec.REFRESH, PAYLOAD)

    def test_appends_racing_close_are_drained_or_refused(self, tmp_path):
        """Every append that returned an LSN before close() must be on
        disk afterwards — a racer either gets drained or raises."""
        wal = WriteAheadLog(tmp_path, fsync="batch")
        acked = []
        refused = threading.Event()

        def producer():
            try:
                for _ in range(5_000):
                    acked.append(wal.append(rec.REFRESH, PAYLOAD))
            except WalError:
                refused.set()

        thread = threading.Thread(target=producer)
        thread.start()
        while not acked:
            pass
        wal.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        survived = {r.lsn for r in read_wal(tmp_path).records}
        missing = [lsn for lsn in acked if lsn not in survived]
        assert not missing, f"acked-but-lost records: {missing[:5]}"


class TestConcurrentProducers:
    def test_concurrent_async_appends_stay_framed(self, tmp_path):
        """Producers that append without waiting on each other get
        contiguous LSNs, each record framed whole."""
        wal = WriteAheadLog(tmp_path, fsync="never", max_segment_bytes=4096)
        per_thread = 200

        def worker():
            for _ in range(per_thread):
                wal.append(rec.CHARGE, PAYLOAD)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        wal.close()
        scan = read_wal(tmp_path)
        assert [r.lsn for r in scan.records] == list(
            range(1, 6 * per_thread + 1)
        )
        for record in scan.records:
            record.decode()


class TestServiceWalObservability:
    @pytest.mark.parametrize("rotate", [False, True])
    def test_stats_mirror_wal_counters(self, tmp_path, rotate):
        from repro.durable.manager import (
            DurabilityConfig,
            DurabilityManager,
        )
        from repro.service import (
            IngestService,
            LoadGenerator,
            ServiceConfig,
            Topology,
        )

        manager = DurabilityManager(
            DurabilityConfig(
                directory=tmp_path,
                fsync="batch",
                max_segment_bytes=4096 if rotate else 64 * 1024 * 1024,
            )
        )
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=256),
            topology=Topology.in_process(durability=manager),
        )
        gen = LoadGenerator(
            "obs", num_users=20, num_objects=8, random_state=5
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=20,
            user_ids=gen.user_ids,
        )
        for chunk in gen.column_chunks(4_000, chunk_size=256):
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        manager.sync()
        service.snapshot(gen.campaign_id)
        stats = service.stats
        assert stats.wal_appends == manager.wal.records_written
        assert stats.wal_appends > 0
        assert stats.wal_commit_groups >= 1
        assert stats.wal_commit_seconds >= 0.0
        # Snapshot forced a blocking sync, so the sampled lag is zero.
        assert stats.wal_durable_lag == 0
        assert (len(list_segments(tmp_path)) > 1) == rotate
        as_dict = stats.as_dict()
        for key in (
            "wal_appends",
            "wal_commit_groups",
            "wal_commit_seconds",
            "wal_durable_lag",
        ):
            assert key in as_dict
        manager.close()


class TestCrashLosesOnlyUnackedSuffix:
    def test_subprocess_crash_preserves_acked_prefix(self, tmp_path):
        """Kill a process mid-stream: every record at or below the
        durable-ack watermark survives; only a staged, never-acked
        suffix may be lost — and what survives is a contiguous prefix,
        never a gap."""
        script = """
import os, sys
sys.path.insert(0, {src!r})
from repro.durable import records as rec
from repro.durable.wal import WriteAheadLog

wal = WriteAheadLog(sys.argv[1], fsync="batch")
payload = rec.encode_json_payload({{"campaign_id": "c"}})
for _ in range(60):
    wal.append(rec.REFRESH, payload)
wal.sync()
for _ in range(60):
    wal.append(rec.REFRESH, payload)
print(wal.durable_lsn, flush=True)
os._exit(1)  # crash: no drain, no close
""".format(
            src=str((os.path.dirname(__file__) or ".") + "/../../src"),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        acked = int(proc.stdout.strip())
        assert acked == 60
        scan = read_wal(tmp_path)
        survived = [r.lsn for r in scan.records]
        # Contiguous prefix covering at least the acked watermark.
        assert survived == list(range(1, len(survived) + 1))
        assert len(survived) >= acked
        assert len(survived) <= 120
