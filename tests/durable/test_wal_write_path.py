"""The WAL's one write path: staged groups, writev, fdatasync.

Every record is staged and each group drains through ``_write_group`` on
the calling thread; these tests pin what that must preserve (the
per-frame writer's bytes, ``per_frame_reference``), when the durable
watermark moves, how it writes (``writev`` split at ``IOV_MAX``, resumed
after short writes), what ``syncs`` counts, and that a failed drain
stays failed.
"""

import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_frame_reference as reference
from repro.chaos import FaultPlan
from repro.chaos import points as chaos_points
from repro.durable import records as rec
from repro.durable import wal as wal_module
from repro.durable.wal import (
    FSYNC_POLICIES,
    WalError,
    WriteAheadLog,
    list_segments,
    read_wal,
)

PAYLOAD = rec.encode_json_payload({"campaign_id": "c"})


def written_segments(directory) -> dict:
    return {p.name: p.read_bytes() for p in list_segments(directory)}


def as_parts(chunks: list) -> tuple:
    """Alternate bytes and memoryviews, like the batch encoder's parts."""
    return tuple(
        memoryview(chunk) if i % 2 else chunk for i, chunk in enumerate(chunks)
    )


operations = st.lists(
    st.one_of(
        st.just("sync"),
        st.tuples(
            st.sampled_from(rec.RECORD_TYPES),
            st.lists(st.binary(max_size=48), min_size=1, max_size=4),
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
# Two empty-payload frames stage exactly the high-water mark: the drain
# runs on reaching it, not only on passing it.
@example(
    ops=[(rec.REFRESH, [b""]), (rec.REFRESH, [b""])],
    max_segment_bytes=2 * wal_module._FRAME_OVERHEAD,
    fsync="batch",
)
@given(
    ops=operations,
    max_segment_bytes=st.integers(min_value=16, max_value=400),
    fsync=st.sampled_from(FSYNC_POLICIES),
)
def test_every_mode_writes_the_per_frame_layout(ops, max_segment_bytes, fsync):
    """Whatever the groups are — sync points anywhere, rotation inside
    a group, empty payloads — the segment names and bytes are the
    per-frame writer's, and after every operation ``durable_lsn`` is
    the committed prefix of a model of the drain rule: each append
    under ``always``, else the last LSN at a ``sync`` or once the staged
    frame bytes reach ``min(max_segment_bytes, 1 MiB)``."""
    records = []
    high_water = min(max_segment_bytes, wal_module.STAGE_HIGH_WATER_BYTES)
    committed = staged_bytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        with WriteAheadLog(
            tmp, fsync=fsync, max_segment_bytes=max_segment_bytes
        ) as wal:
            for op in ops:
                if op == "sync":
                    wal.sync()
                    committed, staged_bytes = len(records), 0
                else:
                    rtype, chunks = op
                    payload = b"".join(chunks)
                    lsn = wal.append(rtype, as_parts(chunks))
                    assert lsn == len(records) + 1
                    records.append((rtype, payload))
                    staged_bytes += wal_module._FRAME_OVERHEAD + len(payload)
                    if fsync == "always" or staged_bytes >= high_water:
                        committed, staged_bytes = lsn, 0
                assert wal.durable_lsn == committed
        assert written_segments(tmp) == reference.segments(
            records, max_segment_bytes
        )


def test_short_writes_resume_across_iov_max_splits(tmp_path, monkeypatch):
    """A group of more than IOV_MAX buffers, against a writev that
    never writes more than a third of what it is handed."""
    real_write = os.write
    calls = []

    def short_writev(fd, buffers):
        assert len(buffers) <= wal_module._IOV_MAX
        calls.append(len(buffers))
        data = b"".join(bytes(buf) for buf in buffers)
        return real_write(fd, data[: max(1, len(data) // 3)])

    monkeypatch.setattr(os, "writev", short_writev)
    values = np.arange(3, dtype="<f8")
    records = []
    with WriteAheadLog(tmp_path, fsync="batch") as wal:
        for i in range(300):
            # A typed (non-byte) memoryview and an empty buffer among
            # the parts: the resume must slice by bytes, not elements.
            parts = (b"h%d" % i, memoryview(values), b"", b"t")
            wal.append(rec.BATCH, parts)
            records.append((rec.BATCH, b"h%d" % i + values.tobytes() + b"t"))
        wal.sync()
        assert wal.groups_committed == 1 and wal.syncs == 1
    assert 5 * len(records) > wal_module._IOV_MAX
    assert max(calls) == wal_module._IOV_MAX
    assert written_segments(tmp_path) == reference.segments(records, 1 << 26)


@pytest.mark.parametrize("multi_part", [False, True])
def test_racing_producers_and_sync_points_keep_the_layout(
    tmp_path, multi_part
):
    """More producers than cores, a thread forcing sync points, and a
    short switch interval: every acknowledged record, handed over whole
    or in parts, is on disk, in LSN order, framed and rotated exactly as
    the per-frame writer would."""
    per_thread = 300
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WriteAheadLog(
            tmp_path, fsync="never", max_segment_bytes=512
        ) as wal:
            done = threading.Event()

            def produce(tag):
                for i in range(per_thread):
                    parts = (b"t%d" % tag, b"-%d" % i)
                    wal.append(
                        rec.CHARGE, parts if multi_part else b"".join(parts)
                    )

            def sync_points():
                while not done.is_set():
                    wal.sync()

            syncer = threading.Thread(target=sync_points)
            producers = [
                threading.Thread(target=produce, args=(t,)) for t in range(4)
            ]
            syncer.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
                assert not thread.is_alive()
            done.set()
            syncer.join(timeout=60)
            assert not syncer.is_alive()
            wal.sync()
            assert wal.durable_lsn == wal.last_lsn == 4 * per_thread
    finally:
        sys.setswitchinterval(old_interval)
    scan = read_wal(tmp_path)
    assert [r.lsn for r in scan.records] == list(range(1, 4 * per_thread + 1))
    records = [(r.rtype, r.payload) for r in scan.records]
    assert written_segments(tmp_path) == reference.segments(records, 512)


@pytest.mark.parametrize(
    "fsync, multi_part, max_segment_bytes, expected",
    [
        ("never", False, 1 << 20, 0),
        ("never", True, 1 << 20, 0),
        ("batch", False, 1 << 20, 1),
        ("batch", True, 1 << 20, 1),
        ("always", False, 1 << 20, 3),
        ("always", True, 1 << 20, 3),
        # One frame per segment, and the second append crosses the
        # 64-byte high-water mark: two seals plus two group commits.
        ("batch", False, 64, 4),
    ],
)
def test_syncs_count_record_fdatasyncs(
    tmp_path, monkeypatch, fsync, multi_part, max_segment_bytes, expected
):
    issued = []
    real = wal_module._fdatasync
    monkeypatch.setattr(
        wal_module, "_fdatasync", lambda fd: (issued.append(fd), real(fd))
    )
    with WriteAheadLog(
        tmp_path, fsync=fsync, max_segment_bytes=max_segment_bytes
    ) as wal:
        payload = PAYLOAD
        if multi_part:
            payload = as_parts([PAYLOAD[:5], PAYLOAD[5:]])
        for _ in range(3):
            wal.append(rec.REFRESH, payload)
        wal.sync()
        assert wal.syncs == len(issued) == expected
        assert wal.durable_lsn == 3


def open_handles(path) -> int:
    """How many of this process's descriptors point at ``path``."""
    fd_dir = "/proc/self/fd"
    count = 0
    for name in os.listdir(fd_dir):
        try:
            count += os.readlink(os.path.join(fd_dir, name)) == str(path)
        except OSError:
            continue
    return count


def under_failing_fsync(call) -> BaseException:
    """Run ``call`` while every ``wal.fsync`` fails; return its error."""
    with chaos_points.installed(FaultPlan(5, rates={"wal.fsync": 1.0})):
        with pytest.raises(Exception) as excinfo:
            call()
    return excinfo.value


def assert_injected(error: BaseException) -> None:
    assert isinstance(error, WalError)
    assert "chaos" in str(error.__cause__)


class TestFailedDrainIsStickyInSyncMode:
    def test_failed_fsync_is_never_acknowledged(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="batch")
        acknowledged = []
        wal.add_commit_listener(acknowledged.append)
        wal.append(rec.REFRESH, PAYLOAD)
        first = under_failing_fsync(wal.sync)
        # The fault is gone, but the record was never made durable: a
        # retry must not report it durable or tell a replication sender.
        with pytest.raises(WalError, match="group commit failed"):
            wal.sync()
        with pytest.raises(WalError, match="group commit failed"):
            wal.append(rec.REFRESH, PAYLOAD)
        assert wal.durable_lsn == 0
        assert acknowledged == []
        with pytest.raises(WalError, match="group commit failed"):
            wal.close()
        assert_injected(first)

    def test_close_after_failed_fsync_releases_and_stays_failed(
        self, tmp_path
    ):
        wal = WriteAheadLog(tmp_path, fsync="batch")
        wal.append(rec.REFRESH, PAYLOAD)
        first = under_failing_fsync(wal.close)
        (segment,) = list_segments(tmp_path)
        if os.path.isdir("/proc/self/fd"):
            assert open_handles(segment) == 0
        # Closing again is a no-op: no retry, no late acknowledgement.
        wal.close()
        assert wal.closed and wal.durable_lsn == 0
        assert_injected(first)
