"""repro.net — the multi-node shard fabric over real sockets.

The worker tier (:mod:`repro.workers`) already speaks a length-prefixed,
transport-independent frame protocol; this package crosses the machine
boundary with it:

* :mod:`repro.net.framing` — :class:`FrameReader`, the shared
  incremental decoder both pipes and sockets use;
* :mod:`repro.net.transport` — :class:`SocketListener` /
  :class:`SocketConnection`, the ``multiprocessing``-connection surface
  over TCP; :class:`FrameServer`, the one accept loop (threads over
  blocking sockets), and :func:`call`, the one dial–ask–hang-up client;
* :mod:`repro.net.host` — :class:`ShardHost`, the pipe worker's loop
  behind a :class:`FrameServer` (``repro serve-shard``);
* :mod:`repro.net.placement` — :class:`PlacementMap`, the mutable
  shard→host table;
* :mod:`repro.net.fabric` — :class:`SocketLauncher`, what makes the
  one :class:`~repro.workers.pool.ShardPool` a fabric of shard-host
  processes on ports, beside the helpers every child of the service
  is launched and owned through (``spawn_cli``, ``HostProcess``);
* :mod:`repro.net.launcher` — the one warm process every CLI child is
  forked from, started at the first spawn;
* :mod:`repro.net.supervisor` — :class:`Supervisor`, journal-based
  checkpoint/replay failover keeping recovered truths bitwise-identical.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ShardPool": "repro.workers.pool",
    "SocketLauncher": "repro.net.fabric",
    "FrameReader": "repro.net.framing",
    "FrameServer": "repro.net.transport",
    "FramingError": "repro.net.framing",
    "ShardHost": "repro.net.host",
    "serve_shard": "repro.net.host",
    "PlacementMap": "repro.net.placement",
    "shard_ranges": "repro.net.placement",
    "HostJournal": "repro.net.supervisor",
    "Supervisor": "repro.net.supervisor",
    "SocketConnection": "repro.net.transport",
    "SocketListener": "repro.net.transport",
    "call": "repro.net.transport",
    "connect": "repro.net.transport",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
