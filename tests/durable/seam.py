"""A recorder on the durable layer's one seam to the disk.

:mod:`repro.durable.fsync` holds every call under ``repro.durable`` and
``repro.replication`` that changes a file or a directory, and callers
reach each as a module attribute.  :class:`SeamRecorder` replaces every
one of them with a wrapper that logs an :class:`Event` per call and,
when asked, crashes after the k-th call or fails the first call of one
function:

* a crash raises :class:`SeamCrash`, a ``BaseException`` that no
  library handler catches, and every later call raises it again, as a
  dead process makes no more calls: what is on disk is what the first
  k calls left;
* a failure raises ``OSError`` in place of the call, as a full disk
  would, and the run goes on; a partial ``write_synced`` failure first
  writes the first half of its bytes, as a disk that fills mid-write
  leaves them.

:func:`calls` records a clean run; :func:`crash_after` runs an action
that must crash.  ``atomic_write`` is recorded as the three calls it is
made of.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from repro.durable import fsync as disk

#: Every seam function that touches the disk.
OPS = (
    "open_segment",
    "write_all",
    "datasync",
    "write_synced",
    "rename",
    "remove",
    "truncate",
    "mkdir",
    "fsync_dir",
)


class SeamCrash(BaseException):
    """The process died after a seam call."""


class Event(NamedTuple):
    """One seam call: the file or directory it acted on (a rename's
    target; a segment's path for ``write_all`` and ``datasync``), the
    bytes it wrote or the size it cut to, and a rename's source."""

    op: str
    path: Optional[Path]
    nbytes: int = 0
    source: Optional[Path] = None


def _nbytes(chunks) -> int:
    return sum(memoryview(chunk).nbytes for chunk in chunks)


class SeamRecorder:
    """Wraps every seam function while :meth:`installed` is active."""

    def __init__(
        self,
        *,
        crash_after: Optional[int] = None,
        fail: Optional[str] = None,
        partial: bool = False,
        on_event=None,
    ) -> None:
        self.events: list[Event] = []
        self.crash_after = crash_after
        self.fail = fail
        self.partial = partial
        self.crashed = False
        self._on_event = on_event
        self._paths: dict[int, Path] = {}  # open segment fd -> path

    @contextlib.contextmanager
    def installed(self):
        with pytest.MonkeyPatch.context() as patch:
            for op in OPS:
                patch.setattr(disk, op, self._wrap(op, getattr(disk, op)))
            yield self

    def _event(self, op: str, args: tuple) -> Event:
        if op in ("write_all", "datasync"):
            size = args[2] if op == "write_all" else 0
            return Event(op, self._paths.get(args[0]), size)
        if op == "rename":
            return Event(op, Path(args[1]), source=Path(args[0]))
        if op == "write_synced":
            return Event(op, Path(args[0]), _nbytes(args[1]))
        if op == "truncate":
            return Event(op, Path(args[0]), args[1])
        return Event(op, Path(args[0]))

    def _wrap(self, op: str, real):
        def call(*args):
            if self.crashed:
                raise SeamCrash(f"{op} after the crash")
            if op == "write_synced":
                args = (args[0], list(args[1]))  # a generator is read once
            event = self._event(op, args)
            if op == self.fail:
                self.fail = None
                if self.partial:
                    data = b"".join(args[1])
                    Path(args[0]).write_bytes(data[: len(data) // 2])
                raise OSError(f"seam: injected failure of {op} {event.path}")
            result = real(*args)
            if op == "open_segment":
                self._paths[result.fileno()] = event.path
            self.events.append(event)
            if self._on_event is not None:
                self._on_event(event)
            if self.crash_after == len(self.events):
                self.crashed = True
                raise SeamCrash(f"crash after seam call {len(self.events)}")
            return result

        return call


def calls(action) -> list[Event]:
    """The seam calls of one clean run of ``action()``."""
    recorder = SeamRecorder()
    with recorder.installed():
        action()
    return recorder.events


def crash_after(k: int, action) -> list[Event]:
    """Run ``action()`` until just after its k-th seam call; the calls
    it made."""
    recorder = SeamRecorder(crash_after=k)
    with recorder.installed(), pytest.raises(SeamCrash):
        action()
    return recorder.events


def fail_first(op: str, action, *, partial: bool = False):
    """Run ``action()`` with its first call of ``op`` failing
    (``OSError``), after half its bytes if ``partial``; returns what
    ``action()`` raised."""
    recorder = SeamRecorder(fail=op, partial=partial)
    with recorder.installed(), pytest.raises(OSError) as info:
        action()
    return info.value
