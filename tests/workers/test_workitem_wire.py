"""WorkItem wire-format coverage: the bytes a shard worker relies on.

The multi-process tentpole ships every micro-batch as
``WorkItem.to_bytes`` and the worker rebuilds it with ``from_bytes``;
these tests pin the round trip down over dtypes, shapes, NaN/inf
payloads, and an actual crossing into a freshly spawned process over a
framed loopback connection.
"""

import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.durable.records import RecordError, WorkItem
from repro.net.framing import FrameReader
from repro.net.transport import SocketListener, connect
from repro.workers import protocol as proto

_SLOT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
                np.uint8, np.uint16, np.uint32)
_VALUE_DTYPES = (np.float16, np.float32, np.float64)
#: Every value a float16 holds, NaN and the infinities included.  An
#: unbounded ``st.floats(width=16)`` draws float64s and rejects those
#: past float16's range, enough rejections to fail Hypothesis's
#: ``filter_too_much`` health check on an unlucky seed; bounding the
#: finite draw to that range and sampling the rest rejects nothing.
_FLOAT16_MAX = float(np.finfo(np.float16).max)
_FLOAT16_VALUES = st.floats(
    min_value=-_FLOAT16_MAX, max_value=_FLOAT16_MAX, width=16
) | st.sampled_from([math.inf, -math.inf, math.nan, -math.nan])


@st.composite
def work_items(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    # Mix small slots with values past the i32 narrowing threshold so
    # both the narrow and wide encodings are exercised.
    if draw(st.booleans()):
        slot_dtype = np.dtype(np.int64)
        elements = st.integers(min_value=0, max_value=2**40)
    else:
        slot_dtype = np.dtype(draw(st.sampled_from(_SLOT_DTYPES)))
        elements = st.integers(
            min_value=0,
            max_value=min(int(np.iinfo(slot_dtype).max), 2**31 - 1),
        )
    user_slots = draw(npst.arrays(slot_dtype, n, elements=elements))
    object_slots = draw(npst.arrays(slot_dtype, n, elements=elements))
    values = draw(
        npst.arrays(
            np.dtype(draw(st.sampled_from(_VALUE_DTYPES))),
            n,
            elements=_FLOAT16_VALUES,
        )
    )
    campaign_id = draw(st.text(max_size=40))
    return WorkItem(
        campaign_id=campaign_id,
        user_slots=user_slots,
        object_slots=object_slots,
        values=values,
    )


class TestRoundtripProperty:
    @settings(max_examples=200, deadline=None)
    @given(work_items())
    def test_roundtrip(self, item):
        out = WorkItem.from_bytes(item.to_bytes())
        assert out.campaign_id == item.campaign_id
        # The constructor already canonicalised to i64/f64; the wire
        # must preserve those bit patterns exactly (NaNs included).
        assert out.user_slots.dtype == np.int64
        assert out.values.dtype == np.float64
        np.testing.assert_array_equal(out.user_slots, item.user_slots)
        np.testing.assert_array_equal(out.object_slots, item.object_slots)
        assert out.values.tobytes() == item.values.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(work_items())
    def test_roundtrip_through_frame(self, item):
        ((rtype, payload),) = FrameReader().feed(
            proto.encode_frame(5, item.to_bytes())
        )
        out = WorkItem.from_bytes(payload)
        assert out.campaign_id == item.campaign_id
        assert out.values.tobytes() == item.values.tobytes()


class TestEdgeCases:
    def test_nan_and_inf_survive(self):
        values = np.array([np.nan, np.inf, -np.inf, -0.0])
        item = WorkItem("c", np.arange(4), np.arange(4), values)
        out = WorkItem.from_bytes(item.to_bytes())
        assert out.values.tobytes() == values.tobytes()

    def test_wide_slots_roundtrip(self):
        slots = np.array([0, 2**31, 2**40], dtype=np.int64)
        item = WorkItem("c", slots, slots[::-1].copy(), np.zeros(3))
        out = WorkItem.from_bytes(item.to_bytes())
        np.testing.assert_array_equal(out.user_slots, slots)

    def test_truncated_payload_rejected(self):
        item = WorkItem("c", np.arange(8), np.arange(8), np.zeros(8))
        with pytest.raises(RecordError):
            WorkItem.from_bytes(item.to_bytes()[:-3])

    def test_empty_item_rejected(self):
        with pytest.raises(ValueError):
            WorkItem("c", np.empty(0, int), np.empty(0, int), np.empty(0))


def _echo_work_items(address):  # pragma: no cover - runs in the child
    """Child side of the spawn round-trip: decode, re-encode, send back."""
    with connect(address, timeout=30.0) as conn:
        while True:
            rtype, payload = conn.recv_frame()
            if rtype == proto.SHUTDOWN:
                return
            item = WorkItem.from_bytes(payload)
            conn.send_frame(rtype, item.to_bytes())


class TestCrossProcess:
    def test_spawn_pipe_roundtrip(self):
        """The wire format survives a real process hop: a spawned
        interpreter dials back over loopback and echoes every item."""
        ctx = multiprocessing.get_context("spawn")
        with SocketListener() as listener:
            process = ctx.Process(
                target=_echo_work_items, args=(listener.address,),
                daemon=True,
            )
            process.start()
            parent = listener.accept(timeout=60.0)
        try:
            rng = np.random.default_rng(7)
            for n in (1, 5, 2048):
                item = WorkItem(
                    campaign_id=f"spawn-{n}",
                    user_slots=rng.integers(0, 2**33, size=n),
                    object_slots=rng.integers(0, 50, size=n),
                    values=rng.normal(size=n),
                )
                parent.send_frame(5, item.to_bytes())
                rtype, payload = parent.recv_frame()
                out = WorkItem.from_bytes(payload)
                assert out.campaign_id == item.campaign_id
                np.testing.assert_array_equal(
                    out.user_slots, item.user_slots
                )
                np.testing.assert_array_equal(
                    out.object_slots, item.object_slots
                )
                assert out.values.tobytes() == item.values.tobytes()
        finally:
            parent.send_frame(proto.SHUTDOWN, b"")
            process.join(timeout=30)
            parent.close()
        assert process.exitcode == 0


class TestRuntimeColumns:
    """A shard host hands aggregation one owned, writable copy of each
    column: the one BATCH decoder widens the slots into fresh arrays and
    copies the values once, so no column is a view of the frame."""

    @pytest.mark.parametrize("high", [7, 2**20, 2**40], ids=["u16", "i4", "i8"])
    @pytest.mark.parametrize("buffer", [bytes, bytearray])
    def test_batch_columns_are_owned_and_copied_once(
        self, monkeypatch, high, buffer
    ):
        from repro.durable import records as rec
        from repro.workers.worker import ShardRuntime

        runtime = ShardRuntime(0, (0, 1))
        ignore = lambda *frame: None  # noqa: E731
        for rtype, body in (
            (rec.CONFIG, {"obs": False}),
            (rec.REGISTER, {"campaign_id": "c", "num_users": 4,
                            "num_objects": 3, "aggregator": "streaming"}),
        ):
            runtime.on_frame(rtype, rec.encode_json_payload(body), ignore)
        ingested = []
        monkeypatch.setattr(
            runtime._aggregators["c"], "ingest", ingested.append
        )
        slots = np.array([0, 1, 2, high], dtype=np.int64)
        payload = buffer(
            WorkItem("c", slots, slots, np.arange(4.0)).to_bytes()
        )
        runtime.on_frame(rec.BATCH, payload, ignore)
        (batch,) = ingested
        frame = np.frombuffer(payload, dtype=np.uint8)
        for name, column in (("users", batch.users),
                             ("objects", batch.objects),
                             ("values", batch.values)):
            assert column.flags.writeable, name
            assert not np.shares_memory(column, frame), name
            # One owned copy per column: nothing is a view of a copy.
            assert column.flags.owndata, name
        assert batch.users.dtype == batch.objects.dtype == np.int64
        assert batch.values.dtype == np.float64
        np.testing.assert_array_equal(batch.users, slots)
        np.testing.assert_array_equal(batch.objects, slots)
        assert batch.values.tobytes() == np.arange(4.0).tobytes()
