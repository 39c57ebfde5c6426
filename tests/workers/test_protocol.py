"""Frame and state-payload encoding tests for the worker protocol."""

import json
import struct

import numpy as np
import pytest

from repro.durable import records as rec
from repro.net.framing import FrameReader
from repro.net.transport import SocketListener, connect
from repro.workers import protocol as proto
from repro.workers.pool import shard_ranges


def decode_one(wire):
    """The frames ``FrameReader`` completes from ``wire``, and the bytes
    it keeps waiting on."""
    reader = FrameReader()
    return reader.feed(wire), reader.pending_bytes


class TestFrames:
    @pytest.mark.parametrize(
        "rtype",
        [rec.CONFIG, rec.BATCH, proto.SNAPSHOT_REQ, proto.ERROR,
         proto.SHUTDOWN],
    )
    def test_roundtrip(self, rtype):
        payload = b"\x00\x01payload\xff" * 3
        assert decode_one(proto.encode_frame(rtype, payload)) == (
            [(rtype, payload)], 0
        )

    def test_empty_payload(self):
        assert decode_one(proto.encode_frame(proto.READY, b"")) == (
            [(proto.READY, b"")], 0
        )

    def test_length_prefix_matches_payload(self):
        frame = proto.encode_frame(rec.BATCH, b"abc")
        # u32 length counts the type byte plus the payload.
        assert int.from_bytes(frame[:4], "little") == 4

    def test_truncated_frame_rejected(self):
        """A cut frame is never yielded; its bytes stay pending."""
        frame = proto.encode_frame(rec.BATCH, b"abcdef")
        assert decode_one(frame[:-2]) == ([], len(frame) - 2)

    def test_oversized_frame_rejected(self):
        """Bytes past a frame are the start of the next one, not part
        of this one's payload."""
        frame = proto.encode_frame(rec.BATCH, b"abc") + b"xx"
        assert decode_one(frame) == ([(rec.BATCH, b"abc")], 2)

    def test_bad_rtype_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.encode_frame(300, b"")

    def test_over_a_socket(self):
        """A worker frame crosses a loopback connection whole, sent
        with the connection's own ``send_frame``."""
        with SocketListener() as listener:
            client = connect(listener.address, timeout=10.0)
            server = listener.accept(timeout=10.0)
            try:
                client.send_frame(rec.REFRESH, b"{}")
                assert server.recv_frame() == (rec.REFRESH, b"{}")
            finally:
                client.close()
                server.close()

    def test_worker_types_disjoint_from_record_types(self):
        worker_types = {
            proto.SNAPSHOT_REQ, proto.SNAPSHOT_RESP, proto.STATE_REQ,
            proto.STATE_RESP, proto.LOAD_STATE, proto.SYNC_REQ,
            proto.SYNC_RESP, proto.READY, proto.ERROR, proto.SHUTDOWN,
        }
        assert not worker_types & set(rec.RECORD_TYPES)


def _raw_blob(manifest, body=b""):
    text = json.dumps(manifest).encode("utf-8")
    return struct.pack("<I", len(text)) + text + body


_VALID_BLOB = proto.pack_state(
    {"campaign_id": "c", "state": {"v": np.arange(16.0)}}
)
MALFORMED_BLOBS = {
    "zip-prefixed-garbage": b"PK\x03\x04" + b"\x00" * 64,
    "truncated-to-half": _VALID_BLOB[: len(_VALID_BLOB) // 2],
    "manifest-byte-flipped": (
        _VALID_BLOB[:6] + bytes([_VALID_BLOB[6] ^ 0xFF]) + _VALID_BLOB[7:]
    ),
    "empty": b"",
    "shape-2**40": _raw_blob({"__nd__": ["<f8", [2**40], 0]}),
    "trailing-bytes": _VALID_BLOB + b"\x00",
    "big-endian-dtype": _raw_blob({"__nd__": [">f8", [1], 0]}, b"\x00" * 8),
    "object-dtype": _raw_blob({"__nd__": ["|O", [1], 0]}, b"\x00" * 8),
    "unicode-dtype": _raw_blob({"__nd__": ["<U2", [1], 0]}, b"\x00" * 8),
    "json-nesting-bomb": (
        struct.pack("<I", 200_000) + b"[" * 100_000 + b"]" * 100_000
    ),
    "negative-offset": _raw_blob({"__nd__": ["<f8", [1], -8]}, b"\x00" * 8),
    "bool-dimension": _raw_blob({"__nd__": ["<f8", [True], 0]}, b"\x00" * 8),
    "nine-dimensions": _raw_blob({"__nd__": ["|u1", [1] * 9, 0]}, b"\x00"),
    "offset-past-body": _raw_blob({"__nd__": ["<f8", [1], 8]}, b"\x00" * 8),
    "body-read-twice": _raw_blob(
        [{"__nd__": ["<f8", [1], 0]}] * 2, b"\x00" * 8
    ),
    "npz-era-placeholder": _raw_blob({"__nd__": "a0"}),
}


class TestStatePayloads:
    def test_roundtrip_nested_arrays(self):
        payload = {
            "campaign_id": "c/one",
            "counts": {"claims": 12, "batches": 3},
            "truths": np.linspace(0.0, 1.0, 7),
            "nested": [
                {"a": np.arange(5, dtype=np.int64)},
                {"b": np.array([True, False])},
            ],
            "nothing": None,
        }
        out = proto.unpack_state(proto.pack_state(payload))
        assert out["campaign_id"] == "c/one"
        assert out["counts"] == {"claims": 12, "batches": 3}
        np.testing.assert_array_equal(out["truths"], payload["truths"])
        np.testing.assert_array_equal(
            out["nested"][0]["a"], payload["nested"][0]["a"]
        )
        assert out["nested"][1]["b"].dtype == bool
        assert out["nothing"] is None

    def test_bitwise_float_fidelity(self):
        values = np.array([0.1 + 0.2, 1e-300, np.nextafter(1.0, 2.0)])
        out = proto.unpack_state(proto.pack_state({"v": values}))
        assert out["v"].tobytes() == values.tobytes()

    def test_unserialisable_payload_raises(self):
        with pytest.raises(proto.ProtocolError):
            proto.pack_state({"bad": object()})

    def test_malformed_blob_raises(self):
        with pytest.raises(proto.ProtocolError):
            proto.unpack_state(b"not a state blob")

    @pytest.mark.parametrize("blob", MALFORMED_BLOBS.values(),
                             ids=MALFORMED_BLOBS.keys())
    def test_malformed_blob_is_a_protocol_error(self, blob):
        """Every hostile blob maps to the typed error."""
        with pytest.raises(proto.ProtocolError):
            proto.unpack_state(blob)

    def test_campaign_id_reads_off_the_manifest(self):
        blob = proto.pack_state(
            {"campaign_id": "c/one", "state": {"v": np.arange(4.0)}}
        )
        assert proto.state_campaign(blob) == "c/one"
        # The manifest alone answers: array bytes may be missing.
        assert proto.state_campaign(blob[:-32]) == "c/one"
        for bad in (b"", proto.pack_state({"state": {}}),
                    proto.pack_state([1, 2])):
            with pytest.raises(proto.ProtocolError):
                proto.state_campaign(bad)


class TestShardRanges:
    def test_even_split(self):
        assert shard_ranges(4, 2) == [(0, 2), (2, 4)]

    def test_uneven_split_is_contiguous_and_complete(self):
        ranges = shard_ranges(7, 3)
        assert ranges == [(0, 3), (3, 5), (5, 7)]
        covered = [s for lo, hi in ranges for s in range(lo, hi)]
        assert covered == list(range(7))

    def test_one_worker_takes_all(self):
        assert shard_ranges(5, 1) == [(0, 5)]

    def test_more_workers_than_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_ranges(2, 3)
