"""Checkpoint store: atomic save/load, pruning, corruption fallback."""

import numpy as np
import pytest

from repro.durable.checkpoint import (
    CheckpointError,
    CheckpointStore,
    pack_payload,
    unpack_payload,
)


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
        newest.write_bytes(b"this is not an npz file")
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
