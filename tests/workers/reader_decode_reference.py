"""Frozen pipe-message decoder: ``decode_frame`` as a message-sized
``FrameReader``.

This is how ``repro.workers.protocol.decode_frame`` decoded every pipe
message before a well-formed message was checked against its header
and sliced once: a ``FrameReader`` whose reusable buffer is the size of
the message takes the whole message, and anything but exactly one
complete frame with nothing left over is an error.  It exists only as
the reference the pipe-decoder property compares against; do not
"modernise" it.
"""

from repro.net.framing import FrameReader, FramingError
from repro.workers.protocol import ProtocolError

HEADER_SIZE = 5


def decode_frame(frame: bytes) -> tuple[int, bytes]:
    reader = FrameReader(buffer_bytes=max(len(frame), HEADER_SIZE))
    try:
        frames = reader.feed(frame)
    except FramingError as exc:
        raise ProtocolError(str(exc)) from exc
    if len(frames) != 1 or reader.pending_bytes:
        raise ProtocolError(
            f"expected exactly one complete frame in {len(frame)} "
            f"byte(s), decoded {len(frames)} with "
            f"{reader.pending_bytes} byte(s) left over"
        )
    return frames[0]
