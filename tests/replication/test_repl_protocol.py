"""Replication wire-format round-trips and malformed-frame rejection."""

import struct

import pytest

from repro.durable import records as rec
from repro.durable.wal import MAX_BODY_BYTES, _frame_header
from repro.replication import protocol as rp
from repro.workers import protocol as wp


class TestJson:
    def test_roundtrip(self):
        body = {"format": 1, "directory": "/tmp/wal"}
        assert rp.decode_json(rp.encode_json(body)) == body

    def test_malformed_rejected(self):
        with pytest.raises(rp.ProtocolError):
            rp.decode_json(b"\xff\xfe not json")

    def test_non_object_rejected(self):
        with pytest.raises(rp.ProtocolError):
            rp.decode_json(b"[1, 2, 3]")


class TestLsn:
    def test_roundtrip(self):
        assert rp.decode_lsn(rp.encode_lsn(0)) == 0
        assert rp.decode_lsn(rp.encode_lsn(2**63)) == 2**63

    def test_short_payload_rejected(self):
        with pytest.raises(rp.ProtocolError):
            rp.decode_lsn(b"\x01\x02")


def frame(rtype: int, lsn: int, payload: bytes) -> bytes:
    """One record framed as the WAL frames it on disk."""
    return _frame_header(rtype, lsn, (payload,), len(payload)) + payload


def frames(*records) -> bytes:
    return b"".join(frame(*record) for record in records)


class TestRecords:
    """A RECORDS group is WAL frames back to back (format 2)."""

    RECORDS = ((rec.BATCH, 7, b"abc"), (rec.REFRESH, 8, b""),
               (rec.CHARGE, 9, b"\x00" * 100))

    def test_roundtrip(self):
        blob = frames(*self.RECORDS)
        out = rp.verify_records(blob, 6)
        assert [(f.rtype, f.lsn, bytes(f.record.payload)) for f in out] == [
            (rtype, lsn, payload) for rtype, lsn, payload in self.RECORDS
        ]
        # Each frame is the group's own bytes: stored as they came.
        assert b"".join(bytes(f.frame) for f in out) == blob

    def test_empty_roundtrip(self):
        assert rp.verify_records(b"", 0) == []

    def test_truncated_rejected(self):
        blob = frames(*self.RECORDS)
        with pytest.raises(rp.ProtocolError):
            rp.verify_records(blob[:-1], 6)

    def test_trailing_bytes_rejected(self):
        blob = frames(*self.RECORDS)
        with pytest.raises(rp.ProtocolError):
            rp.verify_records(blob + b"x", 6)

    def test_history_below_the_cursor_is_dropped(self):
        blob = frames(*self.RECORDS)
        assert [f.lsn for f in rp.verify_records(blob, 8)] == [9]
        assert rp.verify_records(blob, 9) == []


def _set_length(blob: bytes, value: int) -> bytes:
    return struct.pack("<I", value) + blob[4:]


def _flip(blob: bytes, index: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= 1
    return bytes(out)


#: Hostile RECORDS payloads for a standby whose cursor is 6, and the
#: refusal each must get.
HOSTILE = {
    "truncated-mid-header": (frames(*TestRecords.RECORDS)[:-105], "mid-header"),
    "truncated-mid-body": (frames(*TestRecords.RECORDS)[:-1], "follow its header"),
    "flipped-crc": (
        _flip(frames(*TestRecords.RECORDS), len(frames(*TestRecords.RECORDS[:2])) + 4),
        "lsn 9 fails its CRC",
    ),
    "flipped-payload": (
        _flip(frames(*TestRecords.RECORDS), -1), "lsn 9 fails its CRC"
    ),
    "length-above-max-body": (
        _set_length(frames(*TestRecords.RECORDS), MAX_BODY_BYTES + 1), "declares a body"
    ),
    "length-past-the-body": (
        _set_length(frames(*TestRecords.RECORDS), 10_000), "follow its header"
    ),
    "length-below-body-header": (
        _set_length(frames(*TestRecords.RECORDS), 3), "declares a body"
    ),
    "unknown-rtype": (frame(200, 7, b"x"), "unknown record type 200"),
    "lsn-gap": (frames((rec.BATCH, 8, b"abc")), "stream gap: expected lsn 7, got 8"),
    "gap-inside-the-group": (
        frames((rec.BATCH, 7, b"a"), (rec.BATCH, 9, b"b")), "lsn 9 follows lsn 7"
    ),
    "duplicate-frame": (
        frames((rec.BATCH, 7, b"a"), (rec.BATCH, 7, b"a")), "lsn 7 follows lsn 7"
    ),
    "reordered-frames": (
        frames(*(TestRecords.RECORDS[i] for i in (0, 2, 1))), "lsn 9 follows lsn 7"
    ),
    "trailing-bytes": (frames(*TestRecords.RECORDS) + b"\x00" * 3, "mid-header"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_records_group_is_refused_by_name(name):
    payload, error = HOSTILE[name]
    with pytest.raises(rp.ProtocolError, match=error):
        rp.verify_records(payload, 6)


class TestFrameTypeSpace:
    def test_disjoint_from_durable_and_worker_records(self):
        # Replication frames must never collide with WAL record types
        # (1..31) or the worker frame protocol (32..46): a standby
        # persists shipped rtypes verbatim into its own log.
        replication_types = {
            rp.HELLO, rp.CURSOR, rp.RECORDS, rp.ACK, rp.CHECKPOINT,
            rp.READ_REQ, rp.READ_RESP, rp.STATUS_REQ, rp.STATUS_RESP,
            rp.PROMOTE_REQ, rp.PROMOTE_RESP, rp.REPL_ERROR,
        }
        assert len(replication_types) == 12
        assert all(t >= 50 for t in replication_types)

    def test_frame_types_unique_across_protocols(self):
        # One FrameReader / FrameServer stack decodes both protocols, so
        # a reused number is a frame misread, not a naming clash.
        frame_types = {}
        for module in (wp, rp):
            for name, value in vars(module).items():
                if name.isupper() and type(value) is int and name != "REPLICATION_FORMAT":
                    frame_types[f"{module.__name__}.{name}"] = value
        assert len(frame_types) == 14 + 15  # the scan saw both sets
        by_value = {}
        for name, value in frame_types.items():
            by_value.setdefault(value, []).append(name)
        assert {v: n for v, n in by_value.items() if len(n) > 1} == {}
