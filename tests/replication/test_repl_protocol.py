"""Replication wire-format round-trips and malformed-frame rejection."""

import pytest

from repro.durable.records import WalRecord
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


class TestRecords:
    def _records(self):
        return [
            WalRecord(rtype=3, lsn=7, payload=b"abc"),
            WalRecord(rtype=5, lsn=8, payload=b""),
            WalRecord(rtype=9, lsn=9, payload=b"\x00" * 100),
        ]

    def test_roundtrip(self):
        records = self._records()
        out = rp.decode_records(rp.encode_records(records))
        assert [(r.rtype, r.lsn, r.payload) for r in out] == [
            (r.rtype, r.lsn, r.payload) for r in records
        ]

    def test_empty_roundtrip(self):
        assert rp.decode_records(rp.encode_records([])) == []

    def test_truncated_rejected(self):
        blob = rp.encode_records(self._records())
        with pytest.raises(rp.ProtocolError):
            rp.decode_records(blob[:-1])

    def test_trailing_bytes_rejected(self):
        blob = rp.encode_records(self._records())
        with pytest.raises(rp.ProtocolError):
            rp.decode_records(blob + b"x")


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
