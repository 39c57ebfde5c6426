"""Properties of the raw state codec (``pack_state`` / ``unpack_state``)
and of the checkpoint file that frames it.

Round trips are bit-exact for every payload shape the wire admits, and
no byte string — random, truncated or mutated — gets anything out of
the decoder but a payload or a ``ProtocolError``, within the blob's own
memory footprint.  A checkpoint file decodes every payload to the tree
format 1 (npz, ``tests/durable/npz_checkpoint_reference.py``) decoded
it to, and a torn or flipped one is a ``CheckpointError`` that
``load_latest()`` steps past.
"""

import json
import struct
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.durable import checkpoint as ckpt
from repro.durable.checkpoint import CheckpointError, CheckpointStore
from repro.workers import protocol as proto

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "durable"))
import npz_checkpoint_reference  # noqa: E402

DTYPES = [np.dtype(t) for t in (
    bool, np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64, np.float32, np.float64,
)]


@st.composite
def arrays(draw):
    """0-d, empty, strided, transposed and big-endian arrays included."""
    dtype = draw(st.sampled_from(DTYPES))
    array = draw(hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
    ))
    layout = draw(st.sampled_from(("as-is", "strided", "transposed", "big")))
    if layout == "strided" and array.ndim:
        array = np.concatenate([array, array])[::2]
    elif layout == "transposed":
        array = array.T
    elif layout == "big":
        array = array.astype(dtype.newbyteorder(">"))
    return array


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53),
    st.floats(allow_nan=False), st.text(max_size=8),
)
payloads = st.recursive(
    st.one_of(scalars, arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(max_size=6).filter(lambda k: k != "__nd__"),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


def assert_same(expected, got):
    """``got`` is ``expected`` with arrays bit-exact and little-endian."""
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype.newbyteorder("<")
        assert got.tobytes() == expected.astype(got.dtype).tobytes()
        assert got.flags.writeable and got.flags.owndata
    elif isinstance(expected, dict):
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert_same(value, got[key])
    elif isinstance(expected, list):
        assert len(got) == len(expected)
        for value, other in zip(expected, got):
            assert_same(value, other)
    else:
        assert got == expected and type(got) is type(expected)


def decodes_or_protocol_error(blob):
    try:
        proto.unpack_state(blob)
    except proto.ProtocolError:
        pass


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_roundtrip_is_bit_exact(payload):
    assert_same(payload, proto.unpack_state(proto.pack_state(payload)))


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(max_size=4), arrays(), min_size=2, max_size=5))
def test_key_order_is_irrelevant(payload):
    backwards = dict(reversed(list(payload.items())))
    assert_same(payload, proto.unpack_state(proto.pack_state(backwards)))


def test_numpy_scalars_lower_to_python_scalars():
    out = proto.unpack_state(proto.pack_state(
        {"n": np.int64(5), "f": np.float32(0.25), "b": np.bool_(True)}
    ))
    assert out == {"n": 5, "f": 0.25, "b": True}
    assert [type(out[k]) for k in "nfb"] == [int, float, bool]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_decode_or_raise_typed(blob):
    decodes_or_protocol_error(blob)


@settings(max_examples=200, deadline=None)
@given(payloads, st.data())
def test_truncations_and_mutations_decode_or_raise_typed(payload, data):
    blob = proto.pack_state(payload)
    cut = data.draw(st.integers(0, len(blob)))
    decodes_or_protocol_error(blob[:cut])
    at = data.draw(st.integers(0, len(blob) - 1))
    flipped = blob[at] ^ data.draw(st.integers(1, 255))
    decodes_or_protocol_error(blob[:at] + bytes([flipped]) + blob[at + 1:])


def test_declared_size_never_drives_an_allocation():
    """A manifest promising 8 TiB in a 40-byte blob is refused before
    anything is allocated for it."""
    text = json.dumps({"__nd__": ["<f8", [2**40], 0]}).encode("utf-8")
    blob = struct.pack("<I", len(text)) + text
    tracemalloc.start()
    try:
        with pytest.raises(proto.ProtocolError):
            proto.unpack_state(blob)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def assert_decodes_like(reference, got):
    """``got`` is ``reference``, dict key order included; only a
    big-endian array comes back little-endian, with the same values."""
    if isinstance(reference, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == reference.shape
        assert got.dtype == reference.dtype.newbyteorder("<")
        assert got.tobytes() == reference.astype(got.dtype).tobytes()
    elif isinstance(reference, dict):
        assert type(got) is dict and list(got) == list(reference)
        for key, value in reference.items():
            assert_decodes_like(value, got[key])
    elif isinstance(reference, list):
        assert type(got) is list and len(got) == len(reference)
        for value, other in zip(reference, got):
            assert_decodes_like(value, other)
    else:
        assert got == reference and type(got) is type(reference)


@settings(max_examples=150, deadline=None)
@given(payloads, st.integers(0, 2**63 - 1))
def test_checkpoint_file_decodes_as_format_1_did(payload, lsn):
    with tempfile.TemporaryDirectory() as tmp:
        legacy = Path(tmp) / "legacy.npz"
        npz_checkpoint_reference.save(legacy, lsn, payload)
        expected_lsn, expected = npz_checkpoint_reference.load(legacy)
        store = CheckpointStore(tmp)
        loaded = store.load(store.save(lsn, payload))
    assert loaded.lsn == expected_lsn == lsn
    assert_decodes_like(expected, loaded.payload)


@settings(max_examples=100, deadline=None)
@given(payloads, st.data())
def test_torn_or_flipped_checkpoint_is_typed_and_skipped(payload, data):
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp)
        store.save(1, {"previous": True})
        path = store.save(2, payload)
        good = path.read_bytes()
        cut = data.draw(st.integers(0, len(good) - 1), label="cut")
        bit = data.draw(st.integers(0, 8 * len(good) - 1), label="bit")
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        for damaged in (good[:cut], bytes(flipped)):
            path.write_bytes(damaged)
            with pytest.raises(CheckpointError):
                store.load(path)
            assert store.load_latest().payload == {"previous": True}


def _file(body: bytes, *, lsn: int = 7, length=None) -> bytes:
    """A checkpoint file around ``body`` with a correct CRC."""
    fields = struct.pack(
        "<8sIQQ", ckpt.FILE_MAGIC, ckpt.FILE_FORMAT, lsn,
        len(body) if length is None else length,
    )
    return fields + struct.pack("<I", zlib.crc32(body, zlib.crc32(fields))) + body


_TIB_ARRAY = json.dumps({"__nd__": ["<f8", [2**40], 0]}).encode("utf-8")


@pytest.mark.parametrize("data", [
    _file(b"", length=2**43),
    _file(struct.pack("<I", len(_TIB_ARRAY)) + _TIB_ARRAY),
], ids=["8-TiB-body-declared", "8-TiB-array-declared"])
def test_checkpoint_decoding_allocates_no_more_than_the_file(tmp_path, data):
    """Declared sizes are checked against the file before anything is
    allocated for them: a header or a manifest promising terabytes
    costs the file's own size."""
    path = tmp_path / f"ckpt-{7:020d}.ckpt"
    path.write_bytes(data)
    store = CheckpointStore(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            store.load(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 64 * 1024
