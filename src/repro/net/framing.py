"""Incremental length-prefixed frame decoding.

Every byte stream in the system — the worker pipes, the shard-host
sockets, the replication stream and the watchdog's status links —
carries the same frame layout::

    u32  length of everything after this field (little-endian)
    u8   frame type
    ...  payload

Pipes deliver each ``send_bytes`` as one complete message, so the
worker path historically decoded whole buffers.  Sockets do not:
a frame can arrive split across arbitrarily many reads, and one read
can end mid-header.  :class:`FrameReader` is the single decoder both
paths share — feed it byte chunks as they arrive and it yields every
complete ``(type, payload)`` frame, buffering any partial tail until
the next feed.

The reader is strict about what a *complete* prefix must look like
(a declared length of zero cannot even hold the type byte; a length
beyond ``max_frame_bytes`` is garbage or an attack, not a frame) but
deliberately silent about truncation: a partial tail is simply not
yielded yet, because over a live socket "truncated" and "still in
flight" are indistinguishable.  Callers that know the stream is over
check :attr:`pending_bytes` to turn a leftover tail into an error.
"""

from __future__ import annotations

import struct

_HEADER = struct.Struct("<IB")

#: Default ceiling on one frame's declared size.  Aggregator state for
#: a large campaign is tens of MB; 1 GiB rejects corrupt prefixes long
#: before an allocation can hurt.
MAX_FRAME_BYTES = 1 << 30


class FramingError(ValueError):
    """The byte stream does not parse as length-prefixed frames."""


class FrameReader:
    """Stateful decoder turning byte chunks into complete frames.

    One instance per stream direction.  ``feed`` never blocks and never
    over-reads: bytes beyond the last complete frame stay buffered for
    the next call, so arbitrary fragmentation (and coalescing — several
    frames in one read) decodes identically to whole-message delivery.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        self._max = max_frame_bytes
        self._buffer = bytearray()

    # ------------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    @property
    def at_boundary(self) -> bool:
        """True when the stream so far decoded into whole frames only."""
        return not self._buffer

    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Absorb ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[tuple[int, bytes]] = []
        size = len(self._buffer)
        offset = 0
        # A view, so each payload is copied out once (slicing the
        # bytearray itself would copy it twice); released before the
        # buffer is trimmed.
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
                    break  # partial tail; wait for more bytes
                frames.append(
                    (rtype, view[offset + _HEADER.size:end].tobytes())
                )
                offset = end
        if offset:
            del self._buffer[:offset]
        return frames
