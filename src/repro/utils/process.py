"""The one shutdown ladder for child processes, and the polite-stop
hook of the processes on its other end.

Dependency-free on purpose: its callers include code that must not
import the socket stack to say goodbye to a child — a pipe worker's
parent, an in-process service's ``close()``.
"""

from __future__ import annotations

import contextlib
import signal
import threading


def reap(process, timeout: float = 10.0) -> None:
    """Join, then terminate, then kill.

    ``process`` is anything with the ``multiprocessing.Process``
    surface (a real one, or :class:`~repro.net.fabric.HostProcess`).
    A child already asked to exit (or already dead) costs one ``join``;
    one that ignores the request is escalated on, each rung waiting
    ``timeout`` seconds.  ``close()`` is not a rung: on a real
    ``multiprocessing.Process`` it makes ``pid`` / ``exitcode`` raise,
    and handles are read after shutdown.
    """
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout)


@contextlib.contextmanager
def on_sigterm(request_stop):
    """Route SIGTERM — the polite stop :func:`reap` and operators send
    a serving child — to ``request_stop()`` while the block runs.  Main
    thread only: tests serve from worker threads, which take no signals.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: request_stop()
    )
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
