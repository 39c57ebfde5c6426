"""The one shutdown ladder for child processes, and the polite-stop
hook of the processes on its other end.

Dependency-free on purpose: its callers include code that must not
import the socket stack to say goodbye to a child — the topology
module an in-process service loads.
"""

from __future__ import annotations

import contextlib
import signal
import threading


def reap(process, timeout: float = 10.0) -> None:
    """Join, then terminate, then kill.

    ``process`` is anything with the ``Process`` surface
    (``join`` / ``is_alive`` / ``terminate`` / ``kill``), a
    :class:`~repro.net.fabric.HostProcess` in the service.  A child
    already asked to exit (or already dead) costs one ``join``; one
    that ignores the request is escalated on, each rung waiting
    ``timeout`` seconds.  ``close()`` is not a rung: handles are read
    after shutdown.
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

    Once a SIGTERM has asked for the stop, the process is on its way
    out: later ones are ignored after the block as well, so a repeated
    SIGTERM cannot cut the exit short.  Otherwise the previous handler
    is restored.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    asked = []

    def stop(signum, frame):
        asked.append(signum)
        request_stop()

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN if asked else previous)
