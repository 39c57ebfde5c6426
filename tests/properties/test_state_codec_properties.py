"""Properties of the raw state codec (``pack_state`` / ``unpack_state``).

Round trips are bit-exact for every payload shape the wire admits, and
no byte string — random, truncated or mutated — gets anything out of
the decoder but a payload or a ``ProtocolError``, within the blob's own
memory footprint.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.durable.checkpoint import CheckpointStore
from repro.workers import protocol as proto

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


def test_checkpoint_files_written_by_plain_savez_still_load(tmp_path):
    """The on-disk format did not move with the wire codec: a
    ``ckpt-*.npz`` laid out the way every release so far wrote it
    (manifest entry + ``a<N>`` entries, placeholders naming them) loads."""
    matrix = np.arange(12.0).reshape(3, 4) / 7.0
    manifest = {
        "lsn": 41,
        "payload": {
            "campaigns": [{"stats": {"__nd__": "a0"}, "id": "c1"}],
            "mask": {"__nd__": "a1"},
        },
    }
    np.savez(
        tmp_path / f"ckpt-{41:020d}.npz",
        manifest=np.array(json.dumps(manifest, sort_keys=True)),
        a0=matrix,
        a1=np.array([True, False]),
    )
    loaded = CheckpointStore(tmp_path).load_latest()
    assert loaded.lsn == 41
    stats = loaded.payload["campaigns"][0]["stats"]
    assert stats.tobytes() == matrix.tobytes() and stats.shape == (3, 4)
    assert loaded.payload["mask"].tolist() == [True, False]
    # ... and what save() writes today is that same layout.
    path = CheckpointStore(tmp_path).save(42, loaded.payload)
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["a0", "a1", "manifest"]
        assert json.loads(str(npz["manifest"][()]))["payload"] == (
            manifest["payload"]
        )
