"""Incremental length-prefixed frame decoding.

Every byte stream in the system — the shard-host sockets, the
replication stream and the watchdog's status links — carries the same
frame layout::

    u32  length of everything after this field (little-endian)
    u8   frame type
    ...  payload

A TCP stream keeps no message boundaries: a frame can arrive split
across arbitrarily many reads, and one read can end mid-header.
:class:`FrameReader` is the one decoder: a socket reads into the buffer
it offers, and it yields every complete ``(type, payload)`` frame,
keeping any partial tail until more bytes arrive.

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
#: a large campaign is tens of MB; 1 GiB rejects a corrupt prefix, and
#: what the reader allocates for a frame follows the bytes that arrive
#: (see :class:`FrameReader`), so a declared length alone costs little.
MAX_FRAME_BYTES = 1 << 30

#: A frame's own buffer is never more than this many times the bytes
#: of it received, counting at least one reusable buffer: it takes the
#: frame's declared size once that is within the factor, and until then
#: doubles each time it fills.
_BODY_SLACK = 4


class FramingError(ValueError):
    """The byte stream does not parse as length-prefixed frames."""


def check_length(length: int, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    """The bounds on a frame's declared length, wherever a header is
    read: at least 1 (the type byte) and at most ``max_frame_bytes``."""
    if length < 1:
        raise FramingError(
            "frame declares a length of 0 bytes, which cannot "
            "hold its type byte"
        )
    if length > max_frame_bytes:
        raise FramingError(
            f"frame declares {length} bytes, above the "
            f"{max_frame_bytes}-byte ceiling — corrupt stream?"
        )


class FrameReader:
    """Stateful decoder turning received bytes into complete frames.

    One instance per stream direction.  A socket reads into
    :meth:`recv_buffer` and reports what arrived with :meth:`received`;
    bytes a caller already holds go through :meth:`feed`, which does
    the same from memory.

    Reads land in one reusable buffer of ``buffer_bytes``, where every
    frame that arrived whole is copied out once, so one read can yield
    many small frames.  A frame whose body runs past what is buffered
    moves to a buffer of its own, the rest of its body is read straight
    into it, and that buffer becomes its payload (a ``bytearray``, where
    a frame copied out of the reusable buffer is ``bytes``).  The
    frame's buffer is its declared size when that is at most
    ``_BODY_SLACK`` reusable buffers, and then each of its bytes is
    copied at most once in user space.  A longer frame's buffer starts
    at that size and doubles each time it fills, until the declared
    size is within ``_BODY_SLACK`` times what has arrived and the buffer
    takes it: the reader holds what the bytes received warrant, not
    what a header declares, and the regrowths copy fewer bytes than the
    frame holds.  A declared length is checked against its bounds
    before anything is allocated for it, and arbitrary fragmentation
    (and coalescing — several frames in one read) decodes identically
    to whole-message delivery.
    """

    def __init__(
        self,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        buffer_bytes: int = 1 << 16,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}"
            )
        if buffer_bytes < _HEADER.size:
            raise ValueError(
                f"buffer_bytes must hold a frame header "
                f"({_HEADER.size} bytes), got {buffer_bytes}"
            )
        self._max = max_frame_bytes
        self._view = memoryview(bytearray(buffer_bytes))
        # Buffered, unconsumed bytes are _view[_start:_end].
        self._start = self._end = 0
        # The frame being read into its own buffer: its type, declared
        # payload size, buffer so far and the bytes of it filled.  While
        # there is one, the reusable buffer holds nothing.
        self._body: bytearray | None = None
        self._body_type = 0
        self._body_size = 0
        self._filled = 0

    # ------------------------------------------------------------------
    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        if self._body is not None:
            return _HEADER.size + self._filled
        return self._end - self._start

    @property
    def at_boundary(self) -> bool:
        """True when the stream so far decoded into whole frames only."""
        return self.pending_bytes == 0

    # ------------------------------------------------------------------
    def recv_buffer(self) -> memoryview:
        """Where the next bytes of the stream go (never empty): the
        unfilled rest of a part-read frame's own buffer, else the free
        tail of the reusable one."""
        body = self._body
        if body is not None:
            if self._filled == len(body):
                # Full, and short of the declared size: regrow.  A new
                # buffer, since the caller may still hold a view of the
                # old one.
                size, filled = self._body_size, self._filled
                body = bytearray(
                    size if size <= _BODY_SLACK * filled else 2 * filled
                )
                body[:filled] = self._body
                self._body = body
            return memoryview(body)[self._filled:]
        if self._start == self._end:
            self._start = self._end = 0
        elif self._end == len(self._view):
            # Only a cut header can be left at the very end: a frame
            # whose header is whole moved to its own buffer.
            kept = self._end - self._start
            self._view[:kept] = self._view[self._start:self._end]
            self._start, self._end = 0, kept
        return self._view[self._end:]

    def received(self, nbytes: int) -> list[tuple[int, bytes]]:
        """The first ``nbytes`` of the last :meth:`recv_buffer` now hold
        stream bytes; return every frame they complete."""
        body = self._body
        if body is not None:
            self._filled += nbytes
            if self._filled < self._body_size:
                return []
            self._body = None
            return [(self._body_type, body)]
        self._end += nbytes
        return self._frames()

    def feed(self, data) -> list[tuple[int, bytes]]:
        """Absorb bytes already in memory; return every frame completed
        by them."""
        data = memoryview(data).cast("B")
        frames: list[tuple[int, bytes]] = []
        offset = 0
        while offset < len(data):
            target = self.recv_buffer()
            count = min(len(target), len(data) - offset)
            target[:count] = data[offset:offset + count]
            frames.extend(self.received(count))
            offset += count
        return frames

    def _frames(self) -> list[tuple[int, bytes]]:
        """Decode the reusable buffer: copy out each whole frame, and
        move a frame whose body runs past it into its own buffer."""
        view = self._view
        start, end = self._start, self._end
        frames: list[tuple[int, bytes]] = []
        while end - start >= _HEADER.size:
            length, rtype = _HEADER.unpack_from(view, start)
            check_length(length, self._max)
            stop = start + _HEADER.size - 1 + length
            if stop <= end:
                frames.append(
                    (rtype, view[start + _HEADER.size:stop].tobytes())
                )
                start = stop
                continue
            have = end - start - _HEADER.size
            body = bytearray(min(length - 1, _BODY_SLACK * len(view)))
            body[:have] = view[start + _HEADER.size:end]
            self._body, self._body_type = body, rtype
            self._body_size, self._filled = length - 1, have
            start = end = 0
            break
        self._start, self._end = start, end
        return frames
