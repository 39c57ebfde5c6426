"""Checkpoint store: atomic save/load, pruning, corruption fallback,
the file header, and format 1 (npz) files left by earlier releases."""

import struct
import zlib

import numpy as np
import pytest

import npz_checkpoint_reference
from repro.durable import DurabilityConfig, DurabilityManager, RecoveryManager
from repro.durable.checkpoint import (
    FILE_FORMAT,
    FILE_MAGIC,
    CheckpointError,
    CheckpointStore,
    encode_file,
    pack_payload,
    unpack_payload,
    verify_file,
)
from repro.service import IngestService, LoadGenerator, ServiceConfig, Topology


def payload(tag="x"):
    return {
        "tag": tag,
        "nested": {
            "ints": [1, 2, 3],
            "matrix": np.arange(12.0).reshape(3, 4) / 7.0,
            "mask": np.array([True, False, True]),
        },
        "rows": [{"slots": np.arange(4, dtype=np.int64)}, {"empty": None}],
    }


class TestRoundTrip:
    def test_arrays_survive_bitwise(self, tmp_path):
        store = CheckpointStore(tmp_path)
        original = payload()
        store.save(7, original)
        loaded = store.load_latest()
        assert loaded.lsn == 7
        matrix = loaded.payload["nested"]["matrix"]
        assert matrix.tobytes() == original["nested"]["matrix"].tobytes()
        np.testing.assert_array_equal(
            loaded.payload["nested"]["mask"], original["nested"]["mask"]
        )
        np.testing.assert_array_equal(
            loaded.payload["rows"][0]["slots"], original["rows"][0]["slots"]
        )
        assert loaded.payload["rows"][1]["empty"] is None
        assert loaded.payload["tag"] == "x"

    def test_numpy_scalars_become_python(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"n": np.int64(5), "f": np.float64(0.25)})
        loaded = store.load_latest()
        assert loaded.payload == {"n": 5, "f": 0.25}

    def test_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None
        assert CheckpointStore(tmp_path / "missing").paths() == []

    def test_unserialisable_payload_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="JSON-serialisable"):
            CheckpointStore(tmp_path).save(1, {"bad": object()})

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved key"):
            CheckpointStore(tmp_path).save(1, {"d": {"__nd__": "a0"}})

    def test_errors_name_the_path_through_lists(self):
        # Scalar leaves are passed over without a path; a container or
        # an array further along must still be named in full.
        rows = ["id-0", 1, 2.5, None, True]
        with pytest.raises(CheckpointError, match=r"'payload\.rows\[5\]\.d'"):
            pack_payload({"rows": rows + [{"d": {"__nd__": 0}}]})
        with pytest.raises(CheckpointError, match=r"'payload\.rows\[5\]'"):
            pack_payload({"rows": rows + [np.array(["text"])]})

    def test_numpy_scalars_in_a_list_still_lower(self):
        # np.float64 is a float subclass; the others JSON cannot encode.
        row = [np.float64(0.1), 0.2, np.float32(0.25), np.int64(3), np.bool_(True)]
        assert unpack_payload(pack_payload({"w": row})) == {
            "w": [0.1, 0.2, 0.25, 3, True]
        }


class TestLifecycle:
    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for lsn in (1, 5, 9, 12):
            store.save(lsn, payload(str(lsn)))
        names = [p.name for p in store.paths()]
        assert len(names) == 2
        assert store.load_latest().lsn == 12

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(3, payload("old"))
        newest = store.save(8, payload("new"))
        newest.write_bytes(b"this is not a checkpoint file")
        loaded = store.load_latest()
        assert loaded.lsn == 3
        assert loaded.payload["tag"] == "old"

    def test_truncated_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(3, payload("old"))
        newest = store.save(8, payload("new"))
        newest.write_bytes(newest.read_bytes()[:40])
        assert store.load_latest().lsn == 3

    def test_no_tmp_leftovers(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, payload())
        assert not list(tmp_path.glob("*.tmp"))

    def test_write_is_made_durable(self, tmp_path, atomic_write_events):
        """Written, fsynced, renamed into place, then the directory is
        fsynced: without the last step a power loss can undo the rename
        and roll recovery back to the previous checkpoint."""
        store = CheckpointStore(tmp_path)
        path = store.save(4, payload())
        assert atomic_write_events == [
            "write", "fsync file", "replace", "fsync dir"
        ]
        assert store.load(path).payload["tag"] == "x"


def reframed(data: bytes, **fields) -> bytes:
    """``data`` with header fields replaced and the CRC made to fit."""
    names = ("magic", "version", "lsn", "length")
    values = dict(zip(names, struct.unpack_from("<8sIQQ", data)))
    values.update(fields)
    head = struct.pack("<8sIQQ", *(values[n] for n in names))
    body = data[32:]
    return head + struct.pack("<I", zlib.crc32(body, zlib.crc32(head))) + body


class TestFileHeader:
    def test_layout(self):
        data = encode_file(41, payload())
        assert data[:8] == FILE_MAGIC
        assert struct.unpack_from("<IQQ", data, 8) == (FILE_FORMAT, 41, len(data) - 32)
        assert unpack_payload(data[32:])["tag"] == "x"
        assert verify_file(data) == 41

    @pytest.mark.parametrize("fields, error", [
        ({"magic": b"NOTACKPT"}, "bad magic"),
        ({"magic": b"PK\x03\x04\x14\x00\x00\x00"}, r"format 1 \(npz\)"),
        ({"version": 1}, "checkpoint format 1"),
        ({"version": FILE_FORMAT + 1}, f"checkpoint format {FILE_FORMAT + 1}"),
        ({"length": 2**43}, "header declares"),
    ])
    def test_each_header_field_is_checked(self, fields, error):
        with pytest.raises(CheckpointError, match=error):
            verify_file(reframed(encode_file(41, payload()), **fields))

    def test_every_truncation_and_bit_flip_is_refused(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(3, payload("old"))
        path = store.save(8, {"w": np.arange(3.0), "id": "c"})
        good = path.read_bytes()
        damaged = [good[:cut] for cut in range(len(good))]
        for bit in range(8 * len(good)):
            flipped = bytearray(good)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(flipped))
        for data in damaged:
            path.write_bytes(data)
            with pytest.raises(CheckpointError):
                store.load(path)
        assert store.load_latest().payload["tag"] == "old"


class TestFormat1:
    """A format-1 (npz) checkpoint is refused by name, recovery replays
    the complete log instead, and pruning retires the file."""

    def test_npz_refused_log_replayed_file_pruned(self, tmp_path):
        gen = LoadGenerator("legacy", num_users=30, num_objects=8, random_state=3)
        manager = DurabilityManager(DurabilityConfig(directory=tmp_path))
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=256),
            topology=Topology.in_process(durability=manager),
        )
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=30, user_ids=gen.user_ids
        )
        chunks = list(gen.column_chunks(4096, chunk_size=256))
        for chunk in chunks[:8]:
            service.submit_columns(
                gen.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
            )
            service.pump()
        # What an earlier release left behind: its checkpoint as npz.
        current = manager.checkpoint()
        covered = CheckpointStore(tmp_path).load(current)
        legacy = tmp_path / f"ckpt-{covered.lsn:020d}.npz"
        npz_checkpoint_reference.save(legacy, covered.lsn, covered.payload)
        current.unlink()
        for chunk in chunks[8:]:
            service.submit_columns(
                gen.campaign_id, chunk.user_slots, chunk.object_slots, chunk.values
            )
            service.pump()
        service.flush()
        live = service.snapshot(gen.campaign_id)
        manager.close()

        store = CheckpointStore(tmp_path, keep=1)
        assert store.paths() == [legacy]
        with pytest.raises(CheckpointError, match=r"format 1 \(npz\)"):
            store.load(legacy)
        assert store.load_latest() is None

        recovered = RecoveryManager(tmp_path).recover(
            resume=True,
            durability_config=DurabilityConfig(directory=tmp_path, keep_checkpoints=1),
        )
        assert recovered.report.checkpoint_lsn == 0
        again = recovered.service.snapshot(gen.campaign_id)
        assert again.truths.tobytes() == live.truths.tobytes()
        assert again.weights_by_user == live.weights_by_user
        # Resuming checkpoints the recovered campaign; keep=1 then
        # leaves only that file.
        recovered.durability.close()
        assert [p.suffix for p in store.paths()] == [".ckpt"]
        assert store.load_latest().lsn > covered.lsn
