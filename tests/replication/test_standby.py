"""WAL-shipping end to end: ship, read off the replica, promote.

All tests run the standby in-process (:meth:`StandbyServer.start`
serves on a thread) and wire the :class:`ReplicationSender` to a real
:class:`DurabilityManager`, so the full stack — commit listener, tail
reader, framing, standby WAL generation, replay, promotion — is
exercised without subprocesses.
"""

import contextlib
import os
import socket
import struct
import tempfile
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durable import FORMAT_VERSION, DurabilityConfig, DurabilityManager
from repro.durable import records as rec
from repro.durable.checkpoint import encode_file, unpack_payload, verify_file
from repro.durable.stream import TailGapError, WalTailReader
from repro.chaos import points as chaos_points
from repro.chaos.plan import FaultPlan
from repro.durable.wal import (
    SEGMENT_MAGIC,
    WalCorruptionError,
    _frame_header,
    list_segments,
    split_frames,
)
from repro.net.transport import connect
from repro.privacy.ldp import LDPGuarantee
from repro.replication import protocol as rp
from repro.replication.client import ReplicaError, ReplicaReadClient
from repro.replication import sender as sender_module
from repro.replication.sender import ReplicationSender
from repro.replication.standby import StandbyError, StandbyServer
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.loadgen import LoadGenerator
from repro.service.topology import Topology
from repro.workers import protocol as proto

#: Chunk size equals the micro-batch size so every pump leaves the
#: batcher empty — mid-stream comparisons are then exact (same trick
#: as tests/durable/test_recovery.py).
CHUNK = 128
NUM_USERS = 40
NUM_OBJECTS = 12
COST = LDPGuarantee(epsilon=0.001, delta=0.0)


def service_config():
    return ServiceConfig(num_shards=2, max_batch=CHUNK)


def make_traffic(total_chunks=16, seed=11):
    gen = LoadGenerator(
        "repl-c0",
        num_users=NUM_USERS,
        num_objects=NUM_OBJECTS,
        random_state=seed,
    )
    chunks = list(
        gen.column_chunks(total_chunks * CHUNK, chunk_size=CHUNK)
    )
    return gen, chunks


def register(service, gen, cost=None):
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=NUM_USERS,
        user_ids=gen.user_ids,
        cost=cost,
    )


def feed(service, chunks):
    for chunk in chunks:
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        service.pump()


def primary_service(tmp_path, *, ledger=None):
    manager = DurabilityManager(
        DurabilityConfig(directory=tmp_path / "wal", fsync="batch")
    )
    service = IngestService(
        service_config(),
        ledger=ledger,
        topology=Topology.in_process(durability=manager),
    )
    return service, manager


def attach_sender(manager, addresses, **kwargs):
    sender = ReplicationSender(addresses, **kwargs)
    manager.attach_replication(sender)
    return sender


def quiesce(service, manager, sender, *, timeout=60.0):
    """Flush the primary and wait for every standby to ack it."""
    service.flush()
    return wait_shipped(manager, sender, timeout=timeout)


def wait_shipped(manager, sender, *, timeout=60.0):
    """Wait for every standby to ack what the primary has logged.

    Asking first makes every link ship the group it holds now, instead
    of once its oldest frame has waited ``MAX_HOLD_SECONDS``."""
    manager.sync()
    watermark = manager.wal.durable_lsn
    deadline = time.monotonic() + timeout
    sender.wait_replicated(watermark, timeout=timeout)
    while sender.min_ack_lsn() < watermark:
        assert time.monotonic() < deadline, (
            f"standbys stuck at {sender.min_ack_lsn()} < {watermark}"
        )
        time.sleep(0.01)
    return watermark


def ledger_key(records):
    return sorted(
        (r["user_id"], r["epsilon"], r["delta"]) for r in records
    )


def committed_frames(directory, after_lsn: int, up_to_lsn: int) -> bytes:
    """The primary's frames with ``after_lsn < lsn <= up_to_lsn``, as
    its segments hold them: the payload of a RECORDS group."""
    parts = []
    with WalTailReader(directory, after_lsn=after_lsn) as reader:
        while (span := reader.poll(up_to_lsn)) is not None:
            parts.append(os.pread(span.fd, span.length, span.offset))
    return b"".join(parts)


def wal_frame(rtype: int, lsn: int, payload: bytes) -> bytes:
    """One record framed as the WAL frames it."""
    return _frame_header(rtype, lsn, (payload,), len(payload)) + payload


def frame_stream(directory: Path) -> bytes:
    """Every frame of a log in LSN order, segment magics stripped."""
    return b"".join(
        seg.read_bytes()[len(SEGMENT_MAGIC):] for seg in list_segments(directory)
    )


def wait_for(condition, *, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1:]


def with_length(frame: bytes, length: int) -> bytes:
    return length.to_bytes(4, "little") + frame[4:]


def retyped(frame: bytes, rtype: int) -> bytes:
    """``frame`` with its record type replaced and its CRC made to fit."""
    lsn = int.from_bytes(frame[9:17], "little")
    return wal_frame(rtype, lsn, frame[17:])


#: Hostile RECORDS groups built from a run of at least three of the
#: primary's frames above the standby's cursor, and the words of each
#: refusal.
HOSTILE_GROUPS = {
    "truncated-mid-header": lambda f: (b"".join(f[:-1]) + f[-1][:10], "mid-header"),
    "truncated-mid-body": lambda f: (b"".join(f)[:-1], "follow its header"),
    "flipped-crc": lambda f: (flip(f[0], 4) + b"".join(f[1:]), "fails its CRC"),
    "flipped-payload": lambda f: (b"".join(f[:-1]) + flip(f[-1], len(f[-1]) - 1),
                                  "fails its CRC"),
    "length-above-max-body": lambda f: (with_length(f[0], (1 << 30) + 1), "declares a body"),
    "length-past-the-body": lambda f: (with_length(b"".join(f), len(b"".join(f))),
                                       "follow its header"),
    "length-below-body-header": lambda f: (with_length(f[0], 3), "declares a body"),
    "unknown-rtype": lambda f: (retyped(f[0], 200), "unknown record type 200"),
    "lsn-gap": lambda f: (b"".join(f[1:]), "stream gap"),
    "gap-inside-the-group": lambda f: (f[0] + f[2], "follows lsn"),
    "duplicate-frame": lambda f: (f[0] + f[0], "follows lsn"),
    "reordered-frames": lambda f: (f[0] + f[2] + f[1], "follows lsn"),
    "trailing-bytes": lambda f: (b"".join(f) + b"\x00", "mid-header"),
}


def free_port() -> int:
    """A port nothing is listening on (bound once, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestShipAndRead:
    def test_replica_snapshot_bitwise_equal(self, tmp_path):
        gen, chunks = make_traffic()
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(
            tmp_path, ledger=BudgetLedger(epsilon_cap=100.0)
        )
        sender = attach_sender(manager, [address])
        try:
            register(service, gen, cost=COST)
            feed(service, chunks)
            watermark = quiesce(service, manager, sender)

            primary_snap = service.snapshot(gen.campaign_id)
            with ReplicaReadClient(address) as client:
                assert client.ping()
                replica_snap = client.snapshot(gen.campaign_id)
                status = client.status()

            assert (
                replica_snap.truths.tobytes()
                == primary_snap.truths.tobytes()
            )
            assert (
                replica_snap.claims_ingested
                == primary_snap.claims_ingested
            )
            assert (
                replica_snap.weights_by_user
                == primary_snap.weights_by_user
            )
            assert status["durable_lsn"] == watermark
            assert status["promoted"] is False
            assert gen.campaign_id in status["campaigns"]
            assert ledger_key(status["ledger"]["records"]) == ledger_key(
                service.ledger.to_records()
            )

            stats = sender.stats()
            assert stats["sync_mode"] == "async"
            (link,) = stats["standbys"]
            assert link["connected"] is True
            assert link["ack_lsn"] == watermark
            assert link["lag_lsn"] == 0
            assert link["records_shipped"] > 0
            assert link["bytes_shipped"] > 0
        finally:
            service.close()
            manager.close()
            standby.stop()

    @pytest.mark.parametrize("silent", [(), ("never-submits",)])
    def test_replica_contributors_are_the_primarys_columns(
        self, tmp_path, silent
    ):
        """Slot order on both sides (not sorted by id) and the weights'
        array bytes — with every slot active, and with a silent one."""
        gen, chunks = make_traffic(total_chunks=4)
        user_ids = tuple(reversed(gen.user_ids)) + silent
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            service.register_campaign(
                gen.campaign_id, gen.object_ids,
                max_users=len(user_ids), user_ids=user_ids,
            )
            feed(service, chunks)
            quiesce(service, manager, sender)
            primary = service.snapshot(gen.campaign_id)
            with ReplicaReadClient(address) as client:
                replica = client.snapshot(gen.campaign_id)
            order = list(primary.weights_by_user)
            assert order == list(user_ids[:NUM_USERS]) != sorted(order)
            assert list(replica.weights_by_user) == order
            assert list(replica.contributor_ids) == order
            assert (
                replica.contributor_weights.tobytes()
                == primary.contributor_weights.tobytes()
            )
            assert replica.num_contributors == NUM_USERS
            assert not replica.contributor_weights.flags.writeable
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_replication_metrics_exposed(self, tmp_path):
        from repro.obs.exposition import render_prometheus

        gen, chunks = make_traffic(total_chunks=4)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            register(service, gen)
            feed(service, chunks)
            quiesce(service, manager, sender)
            text = render_prometheus(
                service.telemetry.snapshot(service)
            )
            for family in (
                "repro_replication_lag_lsn",
                "repro_replication_lag_seconds",
                "repro_replication_connected",
                "repro_replication_records_shipped_total",
                "repro_replication_bytes_shipped_total",
                "repro_replication_groups_shipped_total",
                "repro_replication_checkpoints_shipped_total",
                "repro_replication_reconnects_total",
                "repro_replication_ship_seconds",
            ):
                assert family in text, f"missing {family}"
            assert 'standby="0"' in text
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_unknown_campaign_read_errors_but_connection_survives(
        self, tmp_path
    ):
        gen, chunks = make_traffic(total_chunks=2)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            register(service, gen)
            feed(service, chunks)
            quiesce(service, manager, sender)
            with ReplicaReadClient(address) as client:
                with pytest.raises(ReplicaError, match="unknown campaign"):
                    client.snapshot("no-such-campaign")
                # The error is per-request: the stream keeps working.
                snap = client.snapshot(gen.campaign_id)
                assert snap.campaign_id == gen.campaign_id
        finally:
            service.close()
            manager.close()
            standby.stop()


class TestPromotion:
    def test_promote_bitwise_with_budget_and_keeps_serving(
        self, tmp_path
    ):
        gen, chunks = make_traffic()
        half = len(chunks) // 2

        # Uncrashed reference over the whole stream.
        reference = IngestService(service_config())
        register(reference, gen)
        feed(reference, chunks)
        reference.flush()
        ref_final = reference.snapshot(gen.campaign_id)
        reference.close()

        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(
            tmp_path, ledger=BudgetLedger(epsilon_cap=100.0)
        )
        sender = attach_sender(manager, [address])
        try:
            register(service, gen, cost=COST)
            feed(service, chunks[:half])
            watermark = quiesce(service, manager, sender)
            primary_snap = service.snapshot(gen.campaign_id)
            spent = service.ledger.to_records()

            # "Crash" the primary: stop shipping, abandon the rest.
            sender.close()
            with ReplicaReadClient(address) as client:
                report = client.promote()
                promoted_snap = client.snapshot(gen.campaign_id)
                status = client.status()
                with pytest.raises(ReplicaError, match="already promoted"):
                    client.promote()

            assert report["watermark_lsn"] == watermark
            assert gen.campaign_id in report["campaigns"]
            assert (
                promoted_snap.truths.tobytes()
                == primary_snap.truths.tobytes()
            )
            assert (
                promoted_snap.claims_ingested
                == primary_snap.claims_ingested
            )
            # Spent budget stays spent across the promotion.
            assert status["promoted"] is True
            assert ledger_key(status["ledger"]["records"]) == ledger_key(
                spent
            )

            # The promoted standby is a fully-functional durable
            # primary: it finishes the stream the crashed one started.
            new_primary = standby.service
            assert standby.durability is not None
            feed(new_primary, chunks[half:])
            new_primary.flush()
            final = new_primary.snapshot(gen.campaign_id)
            assert final.truths.tobytes() == ref_final.truths.tobytes()
            assert final.claims_ingested == ref_final.claims_ingested
        finally:
            service.close()
            standby.stop()
            if standby.durability is not None:
                standby.durability.close()

    def test_promoted_standby_refuses_new_streams(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            register(service, gen)
            feed(service, chunks)
            quiesce(service, manager, sender)
            sender.close()
            with ReplicaReadClient(address) as client:
                client.promote()

            conn = connect(address, timeout=10.0)
            try:
                conn.send_frame(
                    rp.HELLO,
                    rp.encode_json(
                        {"format": rp.REPLICATION_FORMAT, "directory": "x"}
                    ),
                )
                rtype, payload = conn.recv_frame()
            finally:
                conn.close()
            assert rtype == rp.REPL_ERROR
            assert "promoted" in rp.decode_json(payload)["error"]
        finally:
            service.close()
            standby.stop()
            if standby.durability is not None:
                standby.durability.close()

    def test_promote_before_any_stream_fails(self, tmp_path):
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        try:
            with ReplicaReadClient(address) as client:
                with pytest.raises(
                    ReplicaError, match="nothing replicated"
                ):
                    client.promote()
        finally:
            standby.stop()


class TestFencingEpoch:
    """ISSUE-10 tentpole (b): the monotone fencing epoch a standby
    persists before flipping, which makes a stale PROMOTE impossible
    to honour — the standby side of quorum-fenced promotion."""

    def _shipped_standby(self, tmp_path, name="sb0"):
        gen, chunks = make_traffic(total_chunks=2)
        standby = StandbyServer(tmp_path / name)
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        register(service, gen)
        feed(service, chunks)
        quiesce(service, manager, sender)
        sender.close()
        return standby, address, service

    def test_fence_rename_is_made_durable(
        self, tmp_path, monkeypatch, atomic_write_events
    ):
        """The fence is written, fsynced, renamed into place, and then
        its directory is fsynced: without the last step a power loss
        can undo the rename and restart the standby at an older epoch."""
        standby = StandbyServer(tmp_path / "sb0")
        try:
            standby._persist_fencing_epoch(7)
        finally:
            monkeypatch.undo()
            standby.stop()
        assert atomic_write_events == [
            "write", "fsync file", "replace", "fsync dir"
        ]
        assert (tmp_path / "sb0" / "FENCE").read_text() == "7\n"
        restarted = StandbyServer(tmp_path / "sb0")
        try:
            assert restarted.fencing_epoch == 7
        finally:
            restarted.stop()

    def test_stale_epoch_refused_even_after_promotion(self, tmp_path):
        standby, address, service = self._shipped_standby(tmp_path)
        try:
            with ReplicaReadClient(address) as client:
                report = client.promote(epoch=3)
                assert report["fencing_epoch"] == 3
                assert client.status()["fencing_epoch"] == 3
                # The fence outranks every other refusal: the same (or
                # a lower) epoch is stale whoever presents it.
                with pytest.raises(
                    ReplicaError, match="stale fencing epoch 3"
                ):
                    client.promote(epoch=3)
                with pytest.raises(
                    ReplicaError, match="stale fencing epoch 2"
                ):
                    client.promote(epoch=2)
                # An epoch-less promote on a promoted standby still
                # reads as the plain double-promotion error.
                with pytest.raises(ReplicaError, match="already promoted"):
                    client.promote()
            fence_file = tmp_path / "sb0" / "FENCE"
            assert fence_file.read_text().strip() == "3"
        finally:
            service.close()
            standby.stop()
            if standby.durability is not None:
                standby.durability.close()

    def test_wd_promoted_advances_fence_without_promoting(self, tmp_path):
        standby, address, service = self._shipped_standby(tmp_path)
        try:
            # A watchdog announces someone ELSE won at epoch 5: this
            # standby must adopt the fence but stay a standby.
            conn = connect(address, timeout=10.0)
            try:
                conn.send_frame(
                    rp.WD_PROMOTED,
                    rp.encode_json({"fencing_epoch": 5}),
                )
                rtype, _payload = conn.recv_frame()
            finally:
                conn.close()
            assert rtype == proto.PONG
            with ReplicaReadClient(address) as client:
                status = client.status()
                assert status["promoted"] is False
                assert status["fencing_epoch"] == 5
                # The partitioned loser's late PROMOTE at (or below)
                # the winning epoch bounces off the advanced fence...
                with pytest.raises(
                    ReplicaError, match="stale fencing epoch 5"
                ):
                    client.promote(epoch=5)
                # ...while a legitimately newer election still works.
                report = client.promote(epoch=6)
                assert report["fencing_epoch"] == 6
        finally:
            service.close()
            standby.stop()
            if standby.durability is not None:
                standby.durability.close()

    def test_fence_survives_standby_restart(self, tmp_path):
        standby, address, service = self._shipped_standby(tmp_path)
        try:
            conn = connect(address, timeout=10.0)
            try:
                conn.send_frame(
                    rp.WD_PROMOTED,
                    rp.encode_json({"fencing_epoch": 7}),
                )
                conn.recv_frame()
            finally:
                conn.close()
        finally:
            service.close()
            standby.stop()
        reborn = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", reborn.start())
        try:
            with ReplicaReadClient(address) as client:
                assert client.status()["fencing_epoch"] == 7
                with pytest.raises(
                    ReplicaError, match="stale fencing epoch 6"
                ):
                    client.promote(epoch=6)
        finally:
            reborn.stop()
            if reborn.durability is not None:
                reborn.durability.close()


class TestStreamIntegrity:
    def test_newer_layout_config_record_refused_before_it_is_stored(
        self, tmp_path
    ):
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        try:
            before = directory_bytes(tmp_path / "sb0")
            config = wal_frame(rec.CONFIG, 1, rec.encode_json_payload(
                {"version": FORMAT_VERSION + 1, "layout": "unknown"}
            ))
            with open_stream(address, 0) as conn:
                conn.send_frame(rp.RECORDS, config)
                rtype, payload = conn.recv_frame()
            assert rtype == rp.REPL_ERROR
            assert (
                f"CONFIG record 1 has layout version {FORMAT_VERSION + 1}; "
                f"this build reads versions up to {FORMAT_VERSION}"
            ) in rp.decode_json(payload)["error"]
            assert standby.durable_lsn == 0 and standby.service is None
            assert directory_bytes(tmp_path / "sb0") == before
        finally:
            standby.stop()

    def test_reconnect_resumes_from_standby_cursor(self, tmp_path):
        gen, chunks = make_traffic()
        half = len(chunks) // 2
        standby_dir = tmp_path / "sb0"

        standby = StandbyServer(standby_dir)
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        register(service, gen)
        feed(service, chunks[:half])
        cursor = quiesce(service, manager, sender)

        # Take the standby down mid-deployment; the primary keeps
        # ingesting against a dead link.
        sender.close()
        standby.stop()
        feed(service, chunks[half:])
        service.flush()
        manager.sync()

        # Restart from the same directory: the replicated prefix is
        # recovered and the handshake cursor resumes after it.
        restarted = StandbyServer(standby_dir)
        address = ("127.0.0.1", restarted.start())
        assert restarted.durable_lsn == cursor
        manager._replication = None  # the first sender is closed
        sender = attach_sender(manager, [address])
        try:
            watermark = quiesce(service, manager, sender)
            assert watermark > cursor
            # Only the suffix was shipped — nothing re-sent, nothing
            # re-applied.
            assert sender.links[0].records_shipped == watermark - cursor
            primary_snap = service.snapshot(gen.campaign_id)
            with ReplicaReadClient(address) as client:
                replica_snap = client.snapshot(gen.campaign_id)
            assert (
                replica_snap.truths.tobytes()
                == primary_snap.truths.tobytes()
            )
            assert (
                replica_snap.claims_ingested
                == primary_snap.claims_ingested
            )
        finally:
            service.close()
            manager.close()
            restarted.stop()

    def test_duplicate_group_deduped_and_gap_rejected(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            register(service, gen)
            feed(service, chunks)
            watermark = quiesce(service, manager, sender)
            # status() takes the apply lock: the acked group is applied.
            applied_before = standby.status()["records_applied"]

            first = committed_frames(manager.wal.directory, 0, 1)
            assert [frame.lsn for frame in split_frames(first)] == [1]

            conn = connect(address, timeout=10.0)
            try:
                conn.send_frame(
                    rp.HELLO,
                    rp.encode_json(
                        {"format": rp.REPLICATION_FORMAT, "directory": "x"}
                    ),
                )
                rtype, payload = conn.recv_frame()
                assert rtype == rp.CURSOR
                assert rp.decode_lsn(payload) == watermark

                # A duplicate of an already-durable record (a reconnect
                # replaying history) is acked at the unchanged
                # watermark and never re-applied.
                conn.send_frame(rp.RECORDS, first)
                rtype, payload = conn.recv_frame()
                assert rtype == rp.ACK
                assert rp.decode_lsn(payload) == watermark
                assert standby.records_applied == applied_before

                # A gap (skipped LSNs) must never be appended: the
                # standby's log would stop being the primary's prefix.
                gap = wal_frame(rec.REFRESH, watermark + 5, b"")
                conn.send_frame(rp.RECORDS, gap)
                rtype, payload = conn.recv_frame()
                assert rtype == rp.REPL_ERROR
                assert "stream gap" in rp.decode_json(payload)["error"]
                assert standby.durable_lsn == watermark
            finally:
                conn.close()
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_corrupt_committed_frame_is_refused_by_lsn(self, tmp_path):
        """One payload byte of committed frame 3 flipped on the
        primary's disk: the standby refuses the group naming lsn 3,
        stores and applies nothing, and the link records the refusal
        and keeps redialling — instead of shipping 1-2 and then waiting
        silently below the watermark forever."""
        gen, chunks = make_traffic(total_chunks=4)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        try:
            register(service, gen)
            feed(service, chunks)
            service.flush()
            manager.sync()
            assert manager.wal.durable_lsn >= 5
            segment = list_segments(manager.wal.directory)[0]
            frames = split_frames(segment.read_bytes()[len(SEGMENT_MAGIC):])
            assert frames[2].lsn == 3
            end = len(SEGMENT_MAGIC) + sum(len(f.frame) for f in frames[:3])
            with open(segment, "r+b") as fh:
                fh.seek(end - 1)
                byte = fh.read(1)[0]
                fh.seek(end - 1)
                fh.write(bytes([byte ^ 0xFF]))

            sender = attach_sender(manager, [address])
            link = sender.links[0]
            wait_for(
                lambda: "lsn 3 fails its CRC" in (link.last_error or ""),
                what="the link to record the refusal",
            )
            wait_for(lambda: link.reconnects >= 2, what="a redial")
            assert standby.durable_lsn == 0 and standby.records_applied == 0
            assert link.ack_lsn == 0
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_format_1_peer_refused_by_name(self, tmp_path):
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        try:
            conn = connect(address, timeout=10.0)
            try:
                conn.send_frame(rp.HELLO, rp.encode_json({"format": 1}))
                rtype, payload = conn.recv_frame()
            finally:
                conn.close()
            assert rtype == rp.REPL_ERROR
            assert rp.decode_json(payload)["error"] == (
                "replication format 1 refused: this standby speaks format 2"
            )
        finally:
            standby.stop()

    @pytest.mark.parametrize("name", sorted(HOSTILE_GROUPS))
    def test_hostile_group_changes_nothing(self, tmp_path, name):
        """A refused RECORDS group appends nothing, applies nothing and
        leaves the cursor where it was; the stream then goes on."""
        gen, chunks = make_traffic(total_chunks=4)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            register(service, gen)
            feed(service, chunks[:1])
            cursor = quiesce(service, manager, sender)
            sender.close()
            feed(service, chunks[1:])
            service.flush()
            manager.sync()
            durable = manager.wal.durable_lsn
            good = committed_frames(manager.wal.directory, cursor, durable)
            frames = [bytes(f.frame) for f in split_frames(good)]
            assert len(frames) >= 3
            hostile, reason = HOSTILE_GROUPS[name](frames)
            before = directory_bytes(tmp_path / "sb0")
            applied = standby.status()["records_applied"]
            with open_stream(address, cursor) as conn:
                conn.send_frame(rp.RECORDS, hostile)
                rtype, payload = conn.recv_frame()
            assert rtype == rp.REPL_ERROR
            assert reason in rp.decode_json(payload)["error"]
            assert directory_bytes(tmp_path / "sb0") == before
            assert standby.records_applied == applied
            assert standby.durable_lsn == cursor
            with open_stream(address, cursor) as conn:
                conn.send_frame(rp.RECORDS, good)
                assert conn.recv_frame() == (rp.ACK, rp.encode_lsn(durable))
            assert frame_stream(tmp_path / "sb0") == frame_stream(
                manager.wal.directory
            )
        finally:
            service.close()
            standby.stop()

    def test_format_mismatch_refused(self, tmp_path):
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        try:
            conn = connect(address, timeout=10.0)
            try:
                conn.send_frame(
                    rp.HELLO, rp.encode_json({"format": 999})
                )
                rtype, payload = conn.recv_frame()
            finally:
                conn.close()
            assert rtype == rp.REPL_ERROR
            assert "format" in rp.decode_json(payload)["error"]
        finally:
            standby.stop()


class TestCheckpointResync:
    def test_tail_reader_sees_a_quiet_compaction_as_a_gap(self, tmp_path):
        """Compaction retires every top-level segment and nothing is
        written after it: a cursor below the durable watermark has lost
        its records all the same, so the reader says so instead of
        reporting nothing new."""
        gen, chunks = make_traffic(total_chunks=4)
        service, manager = primary_service(tmp_path)
        try:
            register(service, gen)
            feed(service, chunks)
            service.flush()
            manager.compact()
            durable = manager.wal.durable_lsn
            with WalTailReader(manager.wal.directory, after_lsn=0) as reader:
                with pytest.raises(TailGapError, match="lsn 1 "):
                    reader.poll(durable)
            # A cursor already at the watermark is not behind anything.
            with WalTailReader(
                manager.wal.directory, after_lsn=durable
            ) as reader:
                assert reader.poll(durable) is None
        finally:
            service.close()

    def test_compacted_primary_resyncs_via_checkpoint(self, tmp_path):
        gen, chunks = make_traffic()
        half = len(chunks) // 2
        service, manager = primary_service(tmp_path)
        register(service, gen)
        feed(service, chunks[:half])
        service.flush()
        # Checkpoint + compaction retire the whole replicated prefix:
        # a standby joining at cursor 0 can no longer tail from LSN 1.
        manager.compact()

        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        sender = attach_sender(manager, [address])
        try:
            feed(service, chunks[half:])
            quiesce(service, manager, sender)
            assert sender.links[0].checkpoints_shipped == 1

            primary_snap = service.snapshot(gen.campaign_id)
            with ReplicaReadClient(address) as client:
                replica_snap = client.snapshot(gen.campaign_id)
            assert (
                replica_snap.truths.tobytes()
                == primary_snap.truths.tobytes()
            )
            assert (
                replica_snap.claims_ingested
                == primary_snap.claims_ingested
            )
            assert (
                replica_snap.weights_by_user
                == primary_snap.weights_by_user
            )
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_resync_never_takes_the_fence_off_the_disk(
        self, tmp_path, monkeypatch
    ):
        """A crash where a resync once re-wrote the fence (after wiping
        the directory) must restart the standby at its old epoch, still
        refusing the stale PROMOTEs the fence exists for."""
        gen, chunks = make_traffic(total_chunks=4)
        service, manager = primary_service(tmp_path)
        register(service, gen)
        feed(service, chunks[:2])
        manager.compact()
        fence = tmp_path / "sb0" / "FENCE"
        fence.parent.mkdir()
        fence.write_text("4\n")

        def crash(self, epoch):
            raise RuntimeError("crash while re-persisting the fence")

        monkeypatch.setattr(StandbyServer, "_persist_fencing_epoch", crash)
        standby = StandbyServer(tmp_path / "sb0")
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        try:
            feed(service, chunks[2:])
            deadline = time.monotonic() + 10.0
            while fence.exists() and not sender.links[0].checkpoints_shipped:
                assert time.monotonic() < deadline, "no resync happened"
                time.sleep(0.01)
        finally:
            service.close()
            manager.close()
            standby.stop()
        monkeypatch.undo()
        restarted = StandbyServer(tmp_path / "sb0")
        try:
            assert restarted.fencing_epoch == 4
            with pytest.raises(StandbyError, match="stale fencing epoch 4"):
                restarted.promote(epoch=4)
            assert sender.links[0].checkpoints_shipped == 1
        finally:
            restarted.stop()

    @pytest.mark.parametrize("damage, error", [
        ("bad-magic", "bad magic"),
        ("future-version", "checkpoint format 3"),
        ("bad-crc", "CRC mismatch"),
        ("short-body", "header declares"),
        ("long-body", "header declares"),
        ("not-past-cursor", "does not pass the cursor"),
        ("future-layout", f"layout version {FORMAT_VERSION + 1}"),
    ])
    def test_bad_checkpoint_frame_refused_before_anything_changes(
        self, tmp_path, damage, error
    ):
        """Magic, format, length, CRC and LSN are all checked first: a
        refused CHECKPOINT leaves the standby's directory byte for byte
        as it was and its WAL open to the stream."""
        gen, chunks = make_traffic(total_chunks=4)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            register(service, gen)
            feed(service, chunks[:2])
            cursor = quiesce(service, manager, sender)
            sender.close()
            at_cursor = manager.checkpoint().read_bytes()
            feed(service, chunks[2:])
            ahead = manager.checkpoint().read_bytes()
            frame = {
                "bad-magic": reframed(ahead, magic=b"NOTACKPT"),
                "future-version": reframed(ahead, version=3),
                "bad-crc": ahead[:-1] + bytes([ahead[-1] ^ 1]),
                "short-body": ahead[:-1],
                "long-body": ahead + b"\x00",
                "not-past-cursor": at_cursor,
                "future-layout": encode_file(verify_file(ahead), {
                    **unpack_payload(ahead[32:]), "version": FORMAT_VERSION + 1,
                }),
            }[damage]
            before = directory_bytes(tmp_path / "sb0")
            with open_stream(address, cursor) as conn:
                conn.send_frame(rp.CHECKPOINT, frame)
                rtype, payload = conn.recv_frame()
            assert rtype == rp.REPL_ERROR
            assert error in rp.decode_json(payload)["error"]
            assert directory_bytes(tmp_path / "sb0") == before
            # The WAL is still open: the same standby takes the rest of
            # the log as records.
            service.flush()
            manager.sync()
            durable = manager.wal.durable_lsn
            frames = committed_frames(manager.wal.directory, cursor, durable)
            with open_stream(address, cursor) as conn:
                conn.send_frame(rp.RECORDS, frames)
                assert conn.recv_frame() == (rp.ACK, rp.encode_lsn(durable))
            with ReplicaReadClient(address) as client:
                replica = client.snapshot(gen.campaign_id)
            assert replica.truths.tobytes() == (
                service.snapshot(gen.campaign_id).truths.tobytes()
            )
        finally:
            service.close()
            standby.stop()

    @settings(max_examples=8, deadline=None)
    @given(
        before=st.integers(1, 4),
        between=st.integers(0, 2),
        after=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    # A primary that stays quiet after compacting still resyncs a
    # standby joining at cursor 0.
    @example(before=2, between=0, after=0, seed=0)
    def test_resynced_standby_files_are_the_primarys(
        self, before, between, after, seed
    ):
        """At the same LSN, every checkpoint file and WAL segment in a
        resynced standby's directory is byte-identical to the
        primary's file of that name."""
        gen, chunks = make_traffic(total_chunks=before + between + after, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            service, manager = primary_service(
                root, ledger=BudgetLedger(epsilon_cap=100.0)
            )
            standby = None
            try:
                register(service, gen, cost=COST)
                feed(service, chunks[:before])
                manager.compact()
                feed(service, chunks[before:before + between])
                standby = StandbyServer(root / "sb0")
                sender = attach_sender(manager, [("127.0.0.1", standby.start())])
                feed(service, chunks[before + between:])
                watermark = quiesce(service, manager, sender)
                assert sender.links[0].checkpoints_shipped == 1
                assert standby.durable_lsn == watermark
                names = sorted(
                    p.name for p in (root / "sb0").iterdir()
                    if p.name.startswith(("ckpt-", "wal-"))
                )
                # A WAL segment exists once something was written after
                # the compaction.
                logged = ["wal-0"] if between + after else []
                assert [n[:5] for n in names] == ["ckpt-", *logged]
                for name in names:
                    assert (root / "sb0" / name).read_bytes() == (
                        manager.wal.directory / name
                    ).read_bytes(), name
            finally:
                service.close()
                manager.close()
                if standby is not None:
                    standby.stop()


def reframed(data: bytes, **fields) -> bytes:
    """Checkpoint file ``data`` with header fields replaced and the CRC
    made to fit them."""
    names = ("magic", "version", "lsn", "length")
    values = dict(zip(names, struct.unpack_from("<8sIQQ", data)))
    values.update(fields)
    head = struct.pack("<8sIQQ", *(values[n] for n in names))
    body = data[32:]
    return head + struct.pack("<I", zlib.crc32(body, zlib.crc32(head))) + body


def directory_bytes(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@contextlib.contextmanager
def open_stream(address, cursor: int):
    """A hand-driven replication connection, past its handshake."""
    conn = connect(address, timeout=10.0)
    try:
        conn.send_frame(
            rp.HELLO, rp.encode_json({"format": rp.REPLICATION_FORMAT})
        )
        assert conn.recv_frame() == (rp.CURSOR, rp.encode_lsn(cursor))
        yield conn
    finally:
        conn.close()


class SenderReset(FaultPlan):
    """Resets the first send made on a replication link thread, and
    injects nothing anywhere else (the in-process standby shares the
    fault switchboard)."""

    def __init__(self) -> None:
        super().__init__(
            0, rates={"net.send": 1.0, "net.delay": 0.0, "net.connect": 0.0},
            max_per_point=1,
        )

    def fire(self, point):
        if not threading.current_thread().name.startswith("repl-sender"):
            return None
        return super().fire(point)


class TestFrameShipping:
    """Groups are byte ranges of segment files, sent with sendfile."""

    @pytest.mark.parametrize("fault", ["chaos-reset", "cut-mid-frame"])
    def test_rotation_spanning_ship_resumes_bitwise_after_a_reset(
        self, tmp_path, monkeypatch, fault
    ):
        """Two frames a segment and two a group, so ships cross segment
        rotations; the link dies once mid-stream — by the ``net.send``
        fault point, or with half a group on the wire — and resumes
        from the standby's cursor: the standby's log is the primary's
        bytes and its truths the primary's bits."""
        monkeypatch.setattr(sender_module, "MAX_GROUP_BYTES", 4000)
        gen, chunks = make_traffic(total_chunks=12)
        manager = DurabilityManager(DurabilityConfig(
            directory=tmp_path / "wal", fsync="batch", max_segment_bytes=4096
        ))
        service = IngestService(
            service_config(), topology=Topology.in_process(durability=manager)
        )
        standby = StandbyServer(tmp_path / "sb0")
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        link = sender.links[0]
        try:
            register(service, gen)
            feed(service, chunks[:4])
            quiesce(service, manager, sender)
            if fault == "chaos-reset":
                context = chaos_points.installed(SenderReset())
            else:
                context = cut_first_sendfile(monkeypatch)
            with context:
                feed(service, chunks[4:])
                watermark = quiesce(service, manager, sender)
            assert link.reconnects == 1
            assert ("injected connection reset" if fault == "chaos-reset"
                    else "cut mid-frame") in link.last_error
            assert len(list_segments(manager.wal.directory)) > watermark // 3
            assert link.groups_shipped < link.records_shipped
            assert standby.durable_lsn == watermark
            assert frame_stream(tmp_path / "sb0") == frame_stream(tmp_path / "wal")
            primary_snap = service.snapshot(gen.campaign_id)
            with ReplicaReadClient(standby.address) as client:
                replica_snap = client.snapshot(gen.campaign_id)
            assert replica_snap.truths.tobytes() == primary_snap.truths.tobytes()
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_bytes_shipped_counts_frame_bytes(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=3)
        standby = StandbyServer(tmp_path / "sb0")
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        try:
            register(service, gen)
            feed(service, chunks)
            watermark = quiesce(service, manager, sender)
            link = sender.stats()["standbys"][0]
            assert link["records_shipped"] == watermark
            assert link["bytes_shipped"] == len(frame_stream(tmp_path / "wal"))
        finally:
            service.close()
            manager.close()
            standby.stop()


@contextlib.contextmanager
def cut_first_sendfile(monkeypatch):
    """The first sendfile sends half its range, then the link drops."""
    real = os.sendfile
    cut = []

    def sendfile(out_fd, in_fd, offset, count):
        if cut:
            return real(out_fd, in_fd, offset, count)
        cut.append(real(out_fd, in_fd, offset, count // 2))
        raise ConnectionResetError("cut mid-frame")

    monkeypatch.setattr(os, "sendfile", sendfile)
    try:
        yield
    finally:
        monkeypatch.setattr(os, "sendfile", real)
    assert cut, "no group was cut"


def acked_within(sender, watermark, timeout):
    """Seconds until every standby acked ``watermark``, polling without
    asking (so a held group is not shipped on demand); None if never."""
    start = time.monotonic()
    while time.monotonic() - start < timeout:
        if sender.min_ack_lsn() >= watermark:
            return time.monotonic() - start
        time.sleep(0.01)
    return None


class TestGroupFormation:
    """A link holds a partial group until it is full, its segment ends,
    a caller waits on it, or its oldest frame has waited
    ``MAX_HOLD_SECONDS``."""

    def test_a_partial_group_ships_once_its_oldest_frame_has_waited(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sender_module, "MAX_HOLD_SECONDS", 0.5)
        gen, chunks = make_traffic(total_chunks=1)
        standby = StandbyServer(tmp_path / "sb0")
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        try:
            register(service, gen)
            quiesce(service, manager, sender)
            feed(service, chunks)  # one commit
            manager.sync()
            # Nobody asks: the group ships by age alone, and not sooner.
            waited = acked_within(sender, manager.wal.durable_lsn, 10.0)
            assert waited is not None and waited >= 0.4
            assert sender.links[0].groups_shipped == 2
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_a_waiter_and_close_ship_a_held_group_at_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sender_module, "MAX_HOLD_SECONDS", 3600.0)
        gen, chunks = make_traffic(total_chunks=4)
        standby = StandbyServer(tmp_path / "sb0")
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        try:
            register(service, gen)
            feed(service, chunks[:2])
            manager.sync()
            watermark = manager.wal.durable_lsn
            assert acked_within(sender, watermark, 0.3) is None  # held
            assert sender.lag_seconds(sender.links[0]) >= 0.3
            assert sender.wait_replicated(watermark, timeout=10.0)
            feed(service, chunks[2:])
            manager.sync()
            sender.close()
            assert standby.durable_lsn == manager.wal.durable_lsn
            assert frame_stream(tmp_path / "sb0") == frame_stream(tmp_path / "wal")
        finally:
            service.close()
            standby.stop()

    def test_lag_seconds_is_the_first_unacked_commits_age_after_4096_more(
        self, tmp_path
    ):
        """A standby down for more commits than the sender keeps times
        for still reports the age of its first unacked commit, and the
        kept times stay bounded."""
        standby = StandbyServer(tmp_path / "sb0")
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path / "wal", fsync="never")
        )
        sender = attach_sender(
            manager, [("127.0.0.1", standby.start())], connect_timeout=0.2
        )
        link = sender.links[0]
        try:
            manager.wal.append(rec.REFRESH, b"")
            manager.sync()
            assert sender.wait_replicated(1, timeout=10.0)
            standby.stop()
            before = time.monotonic()
            manager.wal.append(rec.REFRESH, b"")
            manager.sync()
            committed = time.monotonic()
            time.sleep(0.5)
            for _ in range(2 * sender_module.COMMIT_TIMES_KEPT + 100):
                manager.wal.append(rec.REFRESH, b"")
                manager.sync()
            low = time.monotonic() - committed
            lag = sender.lag_seconds(link)
            high = time.monotonic() - before
            assert link.ack_lsn == 1
            assert low <= lag <= high
            assert len(sender._commit_times) <= sender_module.COMMIT_TIMES_KEPT + 1
        finally:
            sender.close()
            manager.close()
            standby.stop()


class TestLinkErrors:
    """A link redials on what a connection, a standby or the log can
    throw at it; anything else is a bug, and it surfaces."""

    def test_a_log_that_cannot_be_walked_redials(self, tmp_path, monkeypatch):
        real = WalTailReader.scan
        injected = []

        def scan(self, *args, **kwargs):
            # Only this test's log: a link another test left behind
            # must not take the fault.
            if not injected and self._dir == tmp_path / "wal":
                injected.append(True)
                raise WalCorruptionError("injected: lsn 1 is missing")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(WalTailReader, "scan", scan)
        gen, chunks = make_traffic(total_chunks=2)
        standby = StandbyServer(tmp_path / "sb0")
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        link = sender.links[0]
        try:
            register(service, gen)
            feed(service, chunks)
            watermark = quiesce(service, manager, sender)
            assert link.reconnects == 1
            assert "injected" in link.last_error
            assert standby.durable_lsn == watermark
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_a_bug_ends_the_link_instead_of_redialling(
        self, tmp_path, monkeypatch
    ):
        def scan(self, *args, **kwargs):
            if self._dir == tmp_path / "wal":
                raise TypeError("a bug in the hold logic")
            return real(self, *args, **kwargs)

        real = WalTailReader.scan
        surfaced = []
        monkeypatch.setattr(WalTailReader, "scan", scan)
        monkeypatch.setattr(
            threading, "excepthook", lambda args: surfaced.append(args.exc_value)
        )
        standby = StandbyServer(tmp_path / "sb0")
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [("127.0.0.1", standby.start())])
        link = sender.links[0]
        try:
            link.join(timeout=10.0)
            assert not link._thread.is_alive()
            assert [type(exc) for exc in surfaced] == [TypeError]
            assert link.reconnects == 0
            assert "a bug in the hold logic" in link.last_error
        finally:
            service.close()
            standby.stop()


class TestSyncModes:
    def test_semi_sync_acks_every_pump(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=6)
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address], sync="semi-sync")
        try:
            register(service, gen)
            feed(service, chunks)
            service.flush()
            # Every pump blocked on its own ack, so the watermark is
            # already replicated — no waiting loop needed.
            assert sender.min_ack_lsn() >= manager.wal.last_lsn
            assert sender.semi_sync_timeouts == 0
        finally:
            service.close()
            manager.close()
            standby.stop()

    def test_semi_sync_timeout_degrades_to_async(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=1)
        service, manager = primary_service(tmp_path)
        # Nothing listens on this port: acks never arrive and every
        # pump degrades after ack_timeout instead of hanging forever.
        sender = attach_sender(
            manager,
            [("127.0.0.1", free_port())],
            sync="semi-sync",
            ack_timeout=0.2,
            connect_timeout=0.2,
        )
        try:
            register(service, gen)
            feed(service, chunks)
            service.flush()
            assert sender.semi_sync_timeouts >= 1
        finally:
            service.close()
            manager.close()

    def test_async_never_blocks_on_dead_standby(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        service, manager = primary_service(tmp_path)
        sender = attach_sender(
            manager,
            [("127.0.0.1", free_port())],
            connect_timeout=0.2,
        )
        try:
            register(service, gen)
            start = time.monotonic()
            feed(service, chunks)
            service.flush()
            # Async mode: a dead standby costs the ingest path nothing.
            assert time.monotonic() - start < 10.0
            assert sender.min_ack_lsn() == 0
            assert np.all(
                np.isfinite(service.snapshot(gen.campaign_id).truths)
            )
        finally:
            service.close()
            manager.close()


class TestSenderValidation:
    def test_bad_sync_mode(self):
        with pytest.raises(ValueError, match="sync must be one of"):
            ReplicationSender([("127.0.0.1", 1)], sync="eventually")

    def test_needs_standbys(self):
        with pytest.raises(ValueError, match="at least one standby"):
            ReplicationSender([])

    def test_close_is_idempotent(self, tmp_path):
        standby = StandbyServer(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        service, manager = primary_service(tmp_path)
        sender = attach_sender(manager, [address])
        try:
            sender.close()
            sender.close()
        finally:
            service.close()
            standby.stop()
