"""Property: a standby's log is its primary's bytes, however it is shipped.

A RECORDS group is a run of the primary's WAL frames, located by
:class:`~repro.durable.stream.WalTailReader` and stored by the standby
unchanged once each frame is verified, so the standby's committed frame
stream must be byte-for-byte the primary's — *no matter where the
stream was cut, split into groups, or resumed*, and whatever segment
boundaries fall inside a group.  And it must be what the per-record
path frozen in ``tests/replication/per_record_reference.py`` wrote (one
``append`` per decoded record), with the applied truths and spent
budget bitwise equal to that path's.

A live sender forms its groups from the committed bytes alone: with no
caller waiting and the hold delay out of reach, the groups it ships
are the greedy packing of each segment's frames up to
``MAX_GROUP_BYTES``; a caller waiting on an LSN cuts the group holding
it at the watermark, at once.
"""

import os
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import DurabilityConfig, DurabilityManager, RecordApplier
from repro.durable import records as rec
from repro.durable.recovery import service_from_config
from repro.durable.stream import WalTailReader
from repro.durable.wal import (
    SEGMENT_MAGIC,
    WriteAheadLog,
    list_segments,
    split_frames,
)
from repro.privacy.ldp import LDPGuarantee
from repro.replication import protocol as rp
from repro.replication import sender as sender_module
from repro.replication.sender import ReplicationSender
from repro.replication.standby import StandbyServer
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.loadgen import LoadGenerator
from repro.service.topology import Topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "replication"))
import per_record_reference as reference  # noqa: E402

#: Small segments so multi-record runs exercise rotation too.
SEGMENT_BYTES = 2048

records_strategy = st.lists(
    st.tuples(
        st.sampled_from(rec.RECORD_TYPES),
        st.binary(min_size=0, max_size=200),
    ),
    min_size=1,
    max_size=40,
)


def write_primary(directory: Path, records, segment_bytes=SEGMENT_BYTES) -> None:
    with WriteAheadLog(
        directory, fsync="never", max_segment_bytes=segment_bytes
    ) as wal:
        for rtype, payload in records:
            wal.append(rtype, payload)
        wal.sync()


def frame_stream(directory: Path) -> bytes:
    """Every committed frame in LSN order, segment headers stripped.

    Segment *boundaries* may legitimately differ after a resume (a
    fresh WAL handle seals the old segment and opens a new one), so
    the byte-identity invariant is over the concatenated frame stream
    — which is exactly what recovery and the tail reader consume.
    """
    return b"".join(
        seg.read_bytes()[len(SEGMENT_MAGIC):]
        for seg in list_segments(directory)
    )


def groups(directory: Path, after_lsn: int, watermarks, max_bytes=None):
    """The RECORDS payloads a sender ships from ``after_lsn`` while the
    durable watermark steps through ``watermarks``."""
    with WalTailReader(directory, after_lsn=after_lsn) as reader:
        for up_to in watermarks:
            while (span := reader.poll(up_to, max_bytes=max_bytes)) is not None:
                yield os.pread(span.fd, span.length, span.offset)


def store_group(wal: WriteAheadLog, payload: bytes) -> None:
    """The standby's store step: verify, append the frames unchanged."""
    frames = rp.verify_records(payload, wal.last_lsn)
    if frames:
        assert wal.append_frames(frames) == frames[-1].lsn
    wal.sync()


@settings(max_examples=30, deadline=None)
@given(records=records_strategy, data=st.data())
def test_resume_from_any_split_is_byte_identical(records, data):
    split = data.draw(
        st.integers(min_value=0, max_value=len(records)),
        label="split",
    )
    with tempfile.TemporaryDirectory() as tmp:
        primary = Path(tmp) / "primary"
        standby = Path(tmp) / "standby"
        write_primary(primary, records)
        last = len(records)

        # Session one: ship the prefix up to the split, then "lose the
        # connection" (the standby's WAL handle closes mid-stream).
        wal = WriteAheadLog(
            standby, fsync="never", max_segment_bytes=SEGMENT_BYTES
        )
        for payload in groups(primary, 0, [split]):
            store_group(wal, payload)
        wal.close()

        # Session two: a fresh handle resumes after what survived on
        # the standby's disk — exactly what StandbyServer._bootstrap
        # plus the CURSOR handshake reconstructs.
        wal = WriteAheadLog(
            standby,
            fsync="never",
            max_segment_bytes=SEGMENT_BYTES,
            start_lsn=split + 1,
        )
        for payload in groups(primary, split, [last]):
            store_group(wal, payload)
        wal.close()

        assert frame_stream(standby) == frame_stream(primary)


@settings(max_examples=30, deadline=None)
@given(records=records_strategy, data=st.data())
def test_tail_reader_suffix_matches_source(records, data):
    """The located frames are exactly the records above the cursor,
    payloads intact, regardless of where the cursor sits — the records
    the per-record reader emits."""
    cursor = data.draw(
        st.integers(min_value=0, max_value=len(records)),
        label="cursor",
    )
    with tempfile.TemporaryDirectory() as tmp:
        primary = Path(tmp) / "primary"
        write_primary(primary, records)
        shipped = b"".join(groups(primary, cursor, [len(records)]))
        out = [
            (f.lsn, f.rtype, bytes(f.record.payload))
            for f in split_frames(shipped)
        ]
        assert out == [
            (lsn, rtype, payload)
            for lsn, (rtype, payload) in enumerate(records, start=1)
            if lsn > cursor
        ]
        old = reference.PerRecordTailReader(primary, after_lsn=cursor)
        assert out == [
            (r.lsn, r.rtype, bytes(r.payload)) for r in old.poll(len(records))
        ]


@st.composite
def sessions(draw, last: int):
    """Reconnect points in ``[0, last]`` ending at ``last``; per session,
    the watermarks the primary's durable LSN steps through and how far
    below the standby's cursor the new reader starts (a reconnect that
    replays history the standby already holds)."""
    ends = sorted(set(draw(st.lists(st.integers(0, last), max_size=3)) + [last]))
    plan = []
    for end in ends:
        steps = draw(st.lists(st.integers(0, end), max_size=3))
        plan.append((sorted(steps) + [end], draw(st.integers(0, 3))))
    return plan


@settings(max_examples=40, deadline=None)
@given(
    records=records_strategy,
    primary_segment=st.integers(64, 1024),
    standby_segment=st.integers(64, 1024),
    max_bytes=st.one_of(st.none(), st.integers(1, 1024)),
    data=st.data(),
)
def test_shipped_frames_match_primary_and_per_record_reference(
    records, primary_segment, standby_segment, max_bytes, data
):
    """Ship splits, group caps, segment rotation on both sides mid-group
    and reconnects that replay history: the standby's frame stream is
    the primary's and the per-record reference's, byte for byte."""
    plan = data.draw(sessions(len(records)), label="sessions")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_primary(root / "primary", records, primary_segment)
        cursor = 0
        for watermarks, back in plan:
            with WriteAheadLog(
                root / "standby", fsync="never",
                max_segment_bytes=standby_segment, start_lsn=cursor + 1,
            ) as wal:
                start = max(cursor - back, 0)
                for payload in groups(root / "primary", start, watermarks, max_bytes):
                    store_group(wal, payload)
                cursor = wal.last_lsn
        assert cursor == len(records)

        # The per-record path over the same sessions.
        cursor = 0
        for watermarks, back in plan:
            with WriteAheadLog(
                root / "reference", fsync="never",
                max_segment_bytes=standby_segment, start_lsn=cursor + 1,
            ) as wal:
                reader = reference.PerRecordTailReader(
                    root / "primary", after_lsn=max(cursor - back, 0)
                )
                for up_to in watermarks:
                    group = reference.encode_records(reader.poll(up_to))
                    reference.store(wal, reference.decode_records(group))
                    wal.sync()
                cursor = wal.last_lsn

        primary = frame_stream(root / "primary")
        assert frame_stream(root / "standby") == primary
        assert frame_stream(root / "reference") == primary


# ---------------------------------------------------------------------------
# Applied state: a real primary's log, shipped to a StandbyServer.


class Replies:
    """The reply side of a hand-driven replication connection."""

    def __init__(self) -> None:
        self.frames = []

    def send_frame(self, rtype: int, payload: bytes = b"") -> None:
        self.frames.append((rtype, bytes(payload)))


def run_primary(root: Path, chunks: int, chunk_size: int, devices: int,
                segment_bytes: int, seed: int) -> int:
    """A durable primary: one campaign charging a ledger, bulk chunks
    and device submissions; returns its last LSN once closed."""
    gen = LoadGenerator("prop-c0", num_users=30, num_objects=8, random_state=seed)
    manager = DurabilityManager(DurabilityConfig(
        directory=root / "primary", fsync="never", max_segment_bytes=segment_bytes
    ))
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=64),
        ledger=BudgetLedger(epsilon_cap=100.0),
        topology=Topology.in_process(durability=manager),
    )
    try:
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=30,
            user_ids=gen.user_ids, cost=LDPGuarantee(epsilon=0.01, delta=0.0),
        )
        for chunk in gen.column_chunks(chunks * chunk_size, chunk_size=chunk_size):
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
            )
            for submission in gen.submissions(devices) if devices else ():
                service.submit(submission)
            service.pump()
        service.flush()
    finally:
        service.close()
        manager.close()
    return manager.wal.durable_lsn


def applied(service):
    """Every campaign's served state and the spent budget, as bytes."""
    state = {}
    for cid in service.campaign_ids:
        snap = service.campaign_state(cid).folded_snapshot()
        state[cid] = (
            snap.truths.tobytes(), snap.contributor_weights.tobytes(),
            list(snap.contributor_ids), snap.claims_ingested,
        )
    return state, service.ledger.to_records()


@settings(max_examples=25, deadline=None)
@given(
    chunks=st.integers(1, 5),
    chunk_size=st.integers(1, 200),
    devices=st.integers(0, 3),
    segment_bytes=st.integers(512, 8192),
    max_bytes=st.one_of(st.none(), st.integers(1, 4096)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_standby_applies_what_the_per_record_reference_applies(
    chunks, chunk_size, devices, segment_bytes, max_bytes, seed, data
):
    """A StandbyServer fed the primary's frames — split, capped and
    resumed across standby restarts — holds the primary's frame stream
    and applies truths and budget bitwise equal to the per-record
    path's."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        last = run_primary(root, chunks, chunk_size, devices, segment_bytes, seed)
        plan = data.draw(sessions(last), label="sessions")

        standby = None
        try:
            for watermarks, back in plan:
                standby = StandbyServer(root / "standby", fsync="never")
                replies = Replies()
                start = max(standby.durable_lsn - back, 0)
                for payload in groups(root / "primary", start, watermarks, max_bytes):
                    assert standby._dispatch(replies, rp.RECORDS, payload)
                assert all(rtype == rp.ACK for rtype, _ in replies.frames)
                if watermarks[-1] < last:
                    standby.stop()  # reconnect: a restart resumes the cursor
            assert standby.durable_lsn == last
            shipped = applied(standby.service)
        finally:
            if standby is not None:
                standby.stop()

        # The per-record path: decode, append one by one, apply.
        with WriteAheadLog(root / "reference", fsync="never") as wal:
            group = reference.PerRecordTailReader(root / "primary").poll(last)
            fresh = reference.store(
                wal, reference.decode_records(reference.encode_records(group))
            )
            service = applier = None
            for record in fresh:
                if record.rtype == rec.CONFIG:
                    service = service_from_config(record.decode())
                    applier = RecordApplier(service)
                else:
                    applier.apply(record)
        try:
            assert shipped == applied(service)
        finally:
            service.close()
        primary = frame_stream(root / "primary")
        assert frame_stream(root / "standby") == primary
        assert frame_stream(root / "reference") == primary


# ---------------------------------------------------------------------------
# Group formation: a live sender shipping to a StandbyServer over a socket.


def segment_frames(directory: Path):
    """Per segment file, the ``(lsn, size)`` of each of its frames."""
    return [
        [(f.lsn, len(f.frame))
         for f in split_frames(seg.read_bytes()[len(SEGMENT_MAGIC):])]
        for seg in list_segments(directory)
    ]


def greedy_groups(segments, max_bytes: int, waits):
    """The groups a link ships, computed offline from the frames: per
    segment, a group closes before the frame that would take it past
    ``max_bytes`` and after one that fills it; and for each wait on
    ``lsn`` made at watermark ``durable``, after ``durable`` if ``lsn``
    falls in the group then open."""
    groups = []
    for frames in segments:
        first = None
        for lsn, size in frames:
            if first is not None and held + size > max_bytes:
                groups.append((first, last))
                first = None
            if first is None:
                first, held = lsn, 0
            held, last = held + size, lsn
            if held >= max_bytes or any(
                durable == lsn and wanted >= first for wanted, durable in waits
            ):
                groups.append((first, lsn))
                first = None
        if first is not None:
            groups.append((first, last))
    return groups


class Replay:
    """The primary's log applied record by record, as far as asked."""

    def __init__(self) -> None:
        self.service = self.applier = None
        self.lsn = 0

    def to(self, directory: Path, lsn: int):
        for frame in split_frames(frame_stream(directory)):
            if self.lsn < frame.lsn <= lsn:
                record = frame.record
                if record.rtype == rec.CONFIG:
                    self.service = service_from_config(record.decode())
                    self.applier = RecordApplier(self.service)
                else:
                    self.applier.apply(record)
                self.lsn = frame.lsn
        return None if self.service is None else applied(self.service)


def cut_once(at: int, link):
    """An ``os.sendfile`` whose ``at``-th call on ``link``'s thread sends
    half its range and then drops the link: one reset mid-stream,
    mid-frame."""
    real = os.sendfile
    calls = []

    def sendfile(out_fd, in_fd, offset, count):
        if threading.current_thread() is not link._thread:
            return real(out_fd, in_fd, offset, count)
        calls.append(count)
        if len(calls) - 1 != at:
            return real(out_fd, in_fd, offset, count)
        real(out_fd, in_fd, offset, count // 2)
        raise ConnectionResetError("cut mid-frame")

    return sendfile


commit_plans = st.lists(
    st.one_of(st.integers(1, 200), st.just("wait")), min_size=1, max_size=20
)


@settings(max_examples=20, deadline=None)
@given(
    plan=commit_plans,
    max_group=st.integers(200, 3000),
    segment_bytes=st.integers(512, 4096),
    cut_at=st.integers(0, 8),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_live_groups_are_the_greedy_packing_and_waits_cut_them(
    plan, max_group, segment_bytes, cut_at, seed, data
):
    """Arbitrary commit sequences — chunk sizes set the frame sizes —
    over small segments and group caps, with waits at random LSNs and
    one link reset mid-stream: the standby's log is the primary's
    bytes and its state the primary's replayed to every acked
    watermark; every wait returns without waiting out the hold; and the
    shipped groups are the offline greedy packing, cut where the waits
    cut them."""
    gen = LoadGenerator("prop-c0", num_users=30, num_objects=8, random_state=seed)
    claims = sum(step for step in plan if step != "wait") or 1
    (pool,) = gen.column_chunks(claims, chunk_size=claims)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        standby = StandbyServer(root / "standby", fsync="never")
        sender = ReplicationSender(
            [("127.0.0.1", standby.start())], connect_timeout=10.0
        )
        shipped, waits = [], []
        real_ship = sender_module._StandbyLink._ship

        def ship(link, conn, reader):
            span = reader.held
            real_ship(link, conn, reader)
            if link.sender is sender:  # not a link another test left
                shipped.append((span.first_lsn, span.last_lsn))

        with mock.patch.object(sender_module, "MAX_GROUP_BYTES", max_group), \
                mock.patch.object(sender_module, "MAX_HOLD_SECONDS", 3600.0), \
                mock.patch.object(sender_module._StandbyLink, "_ship", ship), \
                mock.patch.object(os, "sendfile", cut_once(cut_at, sender.links[0])):
            run_live_session(
                root, standby, sender, gen, pool, plan, segment_bytes, waits, data
            )
        assert shipped == greedy_groups(
            segment_frames(root / "primary"), max_group, waits
        )


def run_live_session(root, standby, sender, gen, pool, plan, segment_bytes,
                     waits, data) -> None:
    """Drive a durable primary through ``plan`` with ``sender``
    attached, checking the standby at every wait; close everything."""
    manager = DurabilityManager(DurabilityConfig(
        directory=root / "primary", fsync="never",
        max_segment_bytes=segment_bytes,
    ))
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=64),
        ledger=BudgetLedger(epsilon_cap=100.0),
        topology=Topology.in_process(durability=manager),
    )
    replay = Replay()

    def wait(lsn: int) -> None:
        waits.append((lsn, manager.wal.durable_lsn))
        # The hold is 3600 s: returning at all means it was not waited out.
        assert sender.wait_replicated(lsn, timeout=30.0)
        with standby._apply_lock:  # what the stream has applied
            acked = standby.durable_lsn
            stored = frame_stream(root / "standby")
            state = None if standby.service is None else applied(standby.service)
        assert acked >= lsn
        assert stored == b"".join(
            f.frame for f in split_frames(frame_stream(root / "primary"))
            if f.lsn <= acked
        )
        assert state == replay.to(root / "primary", acked)

    try:
        manager.attach_replication(sender)
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=30,
            user_ids=gen.user_ids, cost=LDPGuarantee(epsilon=0.01, delta=0.0),
        )
        offset = 0
        for step in plan:
            if step == "wait":
                if manager.wal.durable_lsn:
                    wait(data.draw(
                        st.integers(1, manager.wal.durable_lsn), label="lsn"
                    ))
                continue
            part = slice(offset, offset + step)
            offset += step
            service.submit_columns(
                pool.campaign_id, pool.user_slots[part],
                pool.object_slots[part], pool.values[part],
            )
            service.pump()
        service.flush()
        manager.sync()
        wait(manager.wal.durable_lsn)
    finally:
        sender.close()
        service.close()
        manager.close()
        standby.stop()
        if replay.service is not None:
            replay.service.close()
