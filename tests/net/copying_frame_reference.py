"""The copying frame path, frozen as the equivalence reference.

Before each BATCH frame was encoded once and received into its own
buffer, one claim batch crossed the fabric like this:

* the parent built a ``WorkItem`` and called ``to_bytes()`` (each
  column serialised, then the parts joined), and ``encode_frame``
  concatenated the header with that payload;
* the host read the socket in ``RECV_CHUNK`` pieces and fed each piece
  to a ``FrameReader`` that appended it to a growing ``bytearray``,
  copied each complete payload out and trimmed the buffer;
* ``WorkItem.from_bytes`` viewed the payload, and the host copied every
  column that did not own its memory into a checked ``ClaimBatch``.

This module keeps that path: :func:`batch_frame` (the sender),
:class:`CopyingFrameReader` and :func:`receive` (the receiver) and
:func:`decode_batch` (the host's decode).  The frame path must put the
same bytes on the wire, yield the same frames from any split of the
stream, and hand the estimator equal columns.
"""

import struct

import numpy as np

from repro.net.framing import FramingError

#: Bytes per ``recv`` call of the copying receiver.
RECV_CHUNK = 1 << 16
BATCH = 5

_HEADER = struct.Struct("<IB")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_FLAG_NARROW_SLOTS = 0x01
_FLAG_U16_SLOTS = 0x02


def encode_work_item(campaign_id, user_slots, object_slots, values) -> bytes:
    """``WorkItem(...).to_bytes()``: width detection, then each column
    serialised and the parts joined."""
    user_slots = np.asarray(user_slots, dtype=np.int64)
    object_slots = np.asarray(object_slots, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    cid = campaign_id.encode("utf-8")
    high = max(user_slots.max(initial=0), object_slots.max(initial=0))
    low = min(user_slots.min(initial=0), object_slots.min(initial=0))
    if 0 <= low and high < 2**16:
        flags, slot_dtype = _FLAG_U16_SLOTS, "<u2"
    elif -(2**31) <= low and high < 2**31:
        flags, slot_dtype = _FLAG_NARROW_SLOTS, "<i4"
    else:
        flags, slot_dtype = 0, "<i8"
    return b"".join([
        _U16.pack(len(cid)),
        cid,
        _U8.pack(flags),
        _U32.pack(values.size),
        np.ascontiguousarray(user_slots.astype(slot_dtype, copy=False)).tobytes(),
        np.ascontiguousarray(object_slots.astype(slot_dtype, copy=False)).tobytes(),
        np.ascontiguousarray(values, dtype="<f8").tobytes(),
    ])


def encode_frame(rtype: int, payload: bytes) -> bytes:
    """Header and payload concatenated into one buffer."""
    return _HEADER.pack(len(payload) + 1, rtype) + payload


def batch_frame(campaign_id, user_slots, object_slots, values) -> bytes:
    """The bytes one ``RemoteAggregator.ingest`` put on the wire."""
    return encode_frame(
        BATCH,
        encode_work_item(campaign_id, user_slots, object_slots, values),
    )


class CopyingFrameReader:
    """The decoder that appended every chunk to one growing buffer."""

    def __init__(self, *, max_frame_bytes: int = 1 << 30) -> None:
        self._max = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data) -> list:
        self._buffer.extend(data)
        frames = []
        size = len(self._buffer)
        offset = 0
        with memoryview(self._buffer) as view:
            while size - offset >= _HEADER.size:
                length, rtype = _HEADER.unpack_from(view, offset)
                if length < 1:
                    raise FramingError(
                        "frame declares a length of 0 bytes, which cannot "
                        "hold its type byte"
                    )
                if length > self._max:
                    raise FramingError(
                        f"frame declares {length} bytes, above the "
                        f"{self._max}-byte ceiling — corrupt stream?"
                    )
                end = offset + _HEADER.size - 1 + length
                if size < end:
                    break
                frames.append(
                    (rtype, view[offset + _HEADER.size:end].tobytes())
                )
                offset = end
        if offset:
            del self._buffer[:offset]
        return frames


def receive(segments, *, closed: bool = False, max_frame_bytes: int = 1 << 30):
    """Frames the copying receiver yields when the stream arrives as
    ``segments``: each is read in ``RECV_CHUNK`` pieces, as
    ``recv(RECV_CHUNK)`` returns them.  ``closed``: the peer hangs up
    after the last segment, which raises if a frame is cut short."""
    reader = CopyingFrameReader(max_frame_bytes=max_frame_bytes)
    frames = []
    for segment in segments:
        for start in range(0, len(segment), RECV_CHUNK):
            frames.extend(reader.feed(segment[start:start + RECV_CHUNK]))
    if closed and reader.pending_bytes:
        raise FramingError(
            f"peer closed mid-frame with {reader.pending_bytes} byte(s) "
            f"pending"
        )
    return frames


def _owned(column):
    return column if column.flags.owndata else column.copy()


def decode_batch(payload):
    """``(campaign_id, users, objects, values)`` as the host handed
    them to aggregation: ``WorkItem.from_bytes``, then an owned copy of
    each column that was still a view of the frame, then the checked
    ``ClaimBatch`` conversions."""
    (cid_len,) = _U16.unpack_from(payload, 0)
    offset = _U16.size
    cid = str(payload[offset:offset + cid_len], "utf-8")
    offset += cid_len
    (flags,) = _U8.unpack_from(payload, offset)
    offset += _U8.size
    (n,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    if flags & _FLAG_U16_SLOTS:
        slot_dtype, slot_bytes = "<u2", 2
    elif flags & _FLAG_NARROW_SLOTS:
        slot_dtype, slot_bytes = "<i4", 4
    else:
        slot_dtype, slot_bytes = "<i8", 8
    expected = offset + n * (2 * slot_bytes + 8)
    if len(payload) != expected:
        raise ValueError(
            f"work item of {n} claims needs {expected} bytes, "
            f"got {len(payload)}"
        )
    users = np.frombuffer(payload, slot_dtype, n, offset)
    offset += n * slot_bytes
    objects = np.frombuffer(payload, slot_dtype, n, offset)
    offset += n * slot_bytes
    values = np.frombuffer(payload, "<f8", n, offset)
    users = _owned(np.asarray(users, dtype=np.int64))
    objects = _owned(np.asarray(objects, dtype=np.int64))
    values = _owned(np.asarray(values, dtype=np.float64))
    if users.size == 0:
        raise ValueError("batch must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("batch values must be finite")
    return cid, users, objects, values
