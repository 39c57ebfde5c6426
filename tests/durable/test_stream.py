"""WalTailReader: the byte-range locator replication ships from.

A span is a run of whole committed frames in one segment file; the
reader walks frame headers only and must always reach the watermark —
or say, with a typed error, why it cannot.
"""

import os

import pytest

from repro.durable import stream
from repro.durable.stream import TailGapError, WalTailReader
from repro.durable.wal import (
    SEGMENT_MAGIC,
    WalCorruptionError,
    WriteAheadLog,
    list_segments,
    split_frames,
)

PAYLOAD = bytes(range(40))
#: Frame size of one PAYLOAD record: 8-byte header + 9-byte body header.
FRAME = 8 + 9 + len(PAYLOAD)


def write_log(directory, count, *, max_segment_bytes=1 << 20):
    with WriteAheadLog(
        directory, fsync="never", max_segment_bytes=max_segment_bytes
    ) as wal:
        for _ in range(count):
            wal.append(3, PAYLOAD)
        wal.sync()


def read_span(span) -> bytes:
    return os.pread(span.fd, span.length, span.offset)


def spans(reader, up_to, **kwargs):
    out = []
    while (span := reader.poll(up_to, **kwargs)) is not None:
        out.append((span.first_lsn, span.last_lsn, read_span(span)))
    return out


class TestSpans:
    def test_one_span_is_the_segments_bytes_up_to_the_watermark(self, tmp_path):
        write_log(tmp_path, 5)
        (segment,) = list_segments(tmp_path)
        data = segment.read_bytes()
        with WalTailReader(tmp_path, after_lsn=1) as reader:
            assert spans(reader, 4) == [
                (2, 4, data[len(SEGMENT_MAGIC) + FRAME:len(SEGMENT_MAGIC) + 4 * FRAME])
            ]
            assert reader.next_lsn == 5
            assert reader.poll(4) is None  # caught up: the only None
            assert spans(reader, 5) == [(5, 5, data[-FRAME:])]

    def test_spans_end_at_max_bytes_and_at_segment_ends(self, tmp_path):
        # Three frames a segment, so LSNs 1-3, 4-6, 7.
        write_log(tmp_path, 7, max_segment_bytes=len(SEGMENT_MAGIC) + 3 * FRAME)
        with WalTailReader(tmp_path) as reader:
            got = spans(reader, 7, max_bytes=2 * FRAME)
        assert [(first, last) for first, last, _ in got] == [
            (1, 2), (3, 3), (4, 5), (6, 6), (7, 7)
        ]
        frames = split_frames(b"".join(data for _, _, data in got))
        assert [f.lsn for f in frames] == list(range(1, 8))

    def test_a_frame_above_max_bytes_ships_alone(self, tmp_path):
        write_log(tmp_path, 3)
        with WalTailReader(tmp_path) as reader:
            got = spans(reader, 3, max_bytes=1)
        assert [(first, last) for first, last, _ in got] == [(1, 1), (2, 2), (3, 3)]

    def test_a_segment_retired_after_it_was_opened_reads_to_its_end(self, tmp_path):
        write_log(tmp_path, 6, max_segment_bytes=len(SEGMENT_MAGIC) + 3 * FRAME)
        with WalTailReader(tmp_path) as reader:
            assert reader.poll(1)[3:] == (1, 1)
            list_segments(tmp_path)[0].unlink()
            assert [(f, last) for f, last, _ in spans(reader, 6)] == [(2, 3), (4, 6)]


class TestHeldSpan:
    """scan() grows a held span from where it stopped; take() hands it
    out.  Complete means no later frame can join it."""

    def test_a_held_span_grows_by_walking_only_new_headers(
        self, tmp_path, monkeypatch
    ):
        write_log(tmp_path, 6)
        reads = []
        real = os.pread
        monkeypatch.setattr(
            stream.os, "pread", lambda fd, n, at: reads.append(at) or real(fd, n, at)
        )
        with WalTailReader(tmp_path) as reader:
            assert reader.scan(2, max_bytes=10 * FRAME)[3:] == (1, 2)
            del reads[:]
            held = reader.scan(5, max_bytes=10 * FRAME)
            assert held[3:] == (1, 5) and not reader.complete
            first = len(SEGMENT_MAGIC)
            assert reads == [first + i * FRAME for i in (2, 3, 4)]
            assert reader.next_lsn == 1 and reader.scan_lsn == 6
            assert read_span(held) == b"".join(
                f.frame for f in split_frames(list_segments(tmp_path)[0]
                                              .read_bytes()[first:first + 5 * FRAME])
            )
            reader.take()
            assert reader.held is None and reader.next_lsn == 6
            assert reader.scan(6)[3:] == (6, 6)

    def test_complete_when_the_next_frame_would_not_fit_or_it_fills(self, tmp_path):
        write_log(tmp_path, 5)
        with WalTailReader(tmp_path) as reader:
            assert reader.scan(2, max_bytes=2 * FRAME + 1)[3:] == (1, 2)
            assert not reader.complete  # frame 3 is not committed yet
            assert reader.scan(5, max_bytes=2 * FRAME + 1)[3:] == (1, 2)
            assert reader.complete
            assert reader.scan(5, max_bytes=2 * FRAME + 1)[3:] == (1, 2)  # stays
            reader.take()
            assert reader.scan(4, max_bytes=2 * FRAME)[3:] == (3, 4)
            assert reader.complete  # filled: any next frame would overflow

    def test_complete_at_a_segment_end_only_once_the_next_frame_commits(
        self, tmp_path
    ):
        write_log(tmp_path, 4, max_segment_bytes=len(SEGMENT_MAGIC) + 3 * FRAME)
        with WalTailReader(tmp_path) as reader:
            assert reader.scan(3)[3:] == (1, 3)
            assert not reader.complete
            assert reader.scan(4)[3:] == (1, 3)  # LSN 4 is in the next file
            assert reader.complete
            reader.take()
            assert reader.scan(4)[3:] == (4, 4)

    def test_close_drops_the_held_span_and_the_next_scan_walks_it_again(
        self, tmp_path
    ):
        write_log(tmp_path, 3)
        reader = WalTailReader(tmp_path)
        assert reader.scan(2)[3:] == (1, 2)
        reader.close()
        assert reader.scan(3)[3:] == (1, 3)
        reader.close()


class TestTypedErrors:
    def test_truncated_segment_below_the_watermark_raises(self, tmp_path):
        """A walk that cannot reach the watermark says so: the shipped
        prefix, then an error naming the missing LSN — never an empty
        answer a caller would wait on forever."""
        write_log(tmp_path, 5)
        (segment,) = list_segments(tmp_path)
        os.truncate(segment, len(SEGMENT_MAGIC) + 3 * FRAME + 5)
        with WalTailReader(tmp_path) as reader:
            assert reader.poll(5)[3:] == (1, 3)
            with pytest.raises(WalCorruptionError, match="lsn 4"):
                reader.poll(5)
            with pytest.raises(WalCorruptionError, match="lsn 4"):
                reader.poll(5)  # and again, not an empty answer

    def test_segment_ending_below_the_watermark_raises(self, tmp_path):
        write_log(tmp_path, 3)
        with WalTailReader(tmp_path, after_lsn=3) as reader:
            with pytest.raises(WalCorruptionError, match="before lsn 4"):
                reader.poll(4)

    @pytest.mark.parametrize("length", [3, 1 << 31])
    def test_header_out_of_bounds_raises(self, tmp_path, length):
        write_log(tmp_path, 3)
        (segment,) = list_segments(tmp_path)
        with open(segment, "r+b") as fh:
            fh.seek(len(SEGMENT_MAGIC) + FRAME)
            fh.write(length.to_bytes(4, "little"))
        with WalTailReader(tmp_path) as reader:
            assert reader.poll(3)[3:] == (1, 1)
            with pytest.raises(WalCorruptionError, match="declares a body"):
                reader.poll(3)

    def test_lsn_gap_inside_a_segment_raises(self, tmp_path):
        write_log(tmp_path, 3)
        (segment,) = list_segments(tmp_path)
        with open(segment, "r+b") as fh:
            fh.seek(len(SEGMENT_MAGIC) + FRAME + 9)  # frame 2's LSN field
            fh.write((7).to_bytes(8, "little"))
        with WalTailReader(tmp_path) as reader:
            reader.poll(1)
            with pytest.raises(WalCorruptionError, match="expected 2, found 7"):
                reader.poll(3)

    def test_segment_retired_before_it_is_opened_is_a_gap(
        self, tmp_path, monkeypatch
    ):
        write_log(tmp_path, 6, max_segment_bytes=len(SEGMENT_MAGIC) + 3 * FRAME)
        listed = list_segments(tmp_path)
        # Retention unlinks the first segment between the listing and
        # the open.
        listed[0].unlink()
        monkeypatch.setattr(stream, "list_segments", lambda directory: listed)
        with WalTailReader(tmp_path) as reader:
            with pytest.raises(TailGapError, match="retired before the reader"):
                reader.poll(6)

    def test_cursor_below_every_segment_is_a_gap(self, tmp_path):
        write_log(tmp_path, 6, max_segment_bytes=len(SEGMENT_MAGIC) + 3 * FRAME)
        list_segments(tmp_path)[0].unlink()
        with WalTailReader(tmp_path) as reader:
            with pytest.raises(TailGapError, match="lsn 1 "):
                reader.poll(6)
        with WalTailReader(tmp_path, after_lsn=3) as reader:
            assert reader.poll(6)[3:] == (4, 6)
