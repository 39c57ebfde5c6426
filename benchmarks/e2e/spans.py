"""Timing spans around each layer's public entry points.

The tracer wraps class attributes (``IngestService.submit`` and so on)
from outside the program: nothing under ``src/`` knows it exists.  Each
thread keeps its own span stack and its own columnar span buffer, so
recording takes no lock; buffers are merged when the run is over.  A
span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np


class _ThreadBuffer:
    """One thread's spans, as parallel columns."""

    __slots__ = ("thread", "name_ids", "starts", "ends", "parents", "stack", "calls", "sums")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: Index (in this buffer) of the span that caused this one; -1
        #: for a thread's outermost spans.
        self.parents = array("i")
        self.stack: list[int] = []
        #: Per counted site: calls, and the sum of its ``measure``.
        self.calls: dict[str, int] = {}
        self.sums: dict[str, float] = {}


class Tracer:
    """Records spans from wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._installed: list[tuple] = []
        #: ``[False]`` while :meth:`paused`: wrappers then call straight through.
        self._recording = [True]

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer(threading.current_thread().name)
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, measure=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``measure(args)`` (optional) returns a number — a byte count,
        say; the site's calls and the sum of that number are then kept
        beside the spans (:meth:`counted`).
        """
        nid = self._name_id(name)
        clock = self.clock
        get_buffer = self._buffer
        recording = self._recording

        def traced(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            buf = get_buffer()
            stack = buf.stack
            index = len(buf.starts)
            buf.name_ids.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0.0)
            stack.append(index)
            if measure is not None:
                buf.calls[name] = buf.calls.get(name, 0) + 1
                buf.sums[name] = buf.sums.get(name, 0.0) + measure(args)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn):
        """A callable that only counts its calls (:meth:`counted`)."""
        get_buffer = self._buffer
        recording = self._recording

        def counted(*args, **kwargs):
            if recording[0]:
                calls = get_buffer().calls
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def span(self, name: str):
        """A span around harness code (the root of a timed window)."""
        buf = self._buffer()
        index = len(buf.starts)
        buf.name_ids.append(self._name_id(name))
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.ends.append(0.0)
        buf.stack.append(index)
        buf.starts.append(self.clock())
        try:
            yield
        finally:
            buf.ends[index] = self.clock()
            buf.stack.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside (reference replays of the same code)."""
        self._recording[0] = False
        try:
            yield
        finally:
            self._recording[0] = True

    # ------------------------------------------------------------------
    def install(self, sites, *, measures=None, count_only=()) -> None:
        """Wrap ``(name, module, class, attribute)`` class attributes.

        ``measures`` maps a site name to its ``measure`` function;
        ``count_only`` sites get a call counter instead of a span.
        """
        measures = measures or {}
        for name, module, cls_name, attr in list(sites) + list(count_only):
            cls = getattr(importlib.import_module(module), cls_name)
            own = attr in cls.__dict__
            original = getattr(cls, attr)
            if (name, module, cls_name, attr) in count_only:
                wrapper = self.count_calls(name, original)
            else:
                wrapper = self.wrap(name, original, measures.get(name))
            setattr(cls, attr, wrapper)
            self._installed.append((cls, attr, original, own))

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._installed:
            cls, attr, original, own = self._installed.pop()
            if own:
                setattr(cls, attr, original)
            else:
                # The attribute was inherited; the wrapper shadowed it.
                delattr(cls, attr)

    # ------------------------------------------------------------------
    def counted(self, name: str) -> tuple[int, float]:
        """``(calls, sum of measure)`` of a counted site, over every
        thread and the whole time the wrappers were installed (paused
        stretches excepted).  Kept per thread, so no update is lost."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        return (
            sum(buf.calls.get(name, 0) for buf in buffers),
            sum(buf.sums.get(name, 0.0) for buf in buffers),
        )

    def _columns(self):
        """Merged columns over all threads; parents are global indices."""
        name_ids, starts, ends, parents, threads = [], [], [], [], []
        offset = 0
        for t, buf in enumerate(self._buffers):
            n = len(buf.starts)
            # A span still open (a thread mid-call at dump time) has
            # end 0.0; close it at its start so it adds no time.
            s = np.asarray(buf.starts[:n], dtype=float)
            e = np.asarray(buf.ends[:n], dtype=float)
            e = np.where(e == 0.0, s, e)
            p = np.asarray(buf.parents[:n], dtype=np.int64)
            name_ids.append(np.asarray(buf.name_ids[:n], dtype=np.int64))
            starts.append(s)
            ends.append(e)
            parents.append(np.where(p >= 0, p + offset, -1))
            threads.append(np.full(n, t, dtype=np.int64))
            offset += n
        if not starts:
            empty = np.empty(0)
            return (empty.astype(np.int64), empty, empty, empty.astype(np.int64),
                    empty.astype(np.int64))
        return (np.concatenate(name_ids), np.concatenate(starts), np.concatenate(ends),
                np.concatenate(parents), np.concatenate(threads))

    def self_times(self) -> dict[str, dict[str, dict]]:
        """``{root name: {span name: calls, total_s, self_s}}``.

        A span belongs to the outermost span above it on its thread
        (itself, when it has no parent), so the timed window and each
        later phase are accounted separately.
        """
        name_ids, starts, ends, parents, _ = self._columns()
        n = starts.size
        durations = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=n)
        self_time = durations - child_time
        # Pointer doubling: after k rounds every span points 2**k
        # ancestors up, and roots point at themselves.
        root = np.where(has_parent, parents, np.arange(n))
        while True:
            above = root[root]
            if np.array_equal(above, root):
                break
            root = above
        k = len(self.names)
        out: dict[str, dict[str, dict]] = {}
        for root_id in np.unique(name_ids[root]) if n else ():
            mine = name_ids[root] == root_id
            calls = np.bincount(name_ids[mine], minlength=k)
            total = np.bincount(name_ids[mine], weights=durations[mine], minlength=k)
            own = np.bincount(name_ids[mine], weights=self_time[mine], minlength=k)
            out[self.names[root_id]] = {
                self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i in np.flatnonzero(calls)
            }
        return out

    def dump(self, path, workload: str) -> int:
        """Write every span as JSON columns; returns the span count."""
        name_ids, starts, ends, parents, threads = self._columns()
        payload = {
            "workload": workload,
            "names": self.names,
            "threads": [buf.thread for buf in self._buffers],
            "spans": {
                "name": name_ids.tolist(),
                "start": starts.tolist(),
                "end": ends.tolist(),
                "parent": parents.tolist(),
                "thread": threads.tolist(),
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return int(starts.size)
