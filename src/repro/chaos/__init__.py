"""repro.chaos — deterministic fault injection.

The invariants this codebase sells — recovered truths bitwise-equal,
spent budget stays spent — were historically proven at hand-placed
fault points (a SIGKILL here, a torn segment there).  This package
makes them properties checked under *randomized but reproducible*
schedules instead:

* :class:`FaultPlan` — a seed-driven schedule over named fault points
  (:data:`FAULT_POINTS`) threaded through the WAL, the socket
  transport, and the process pools; per-point child streams keep the
  schedule stable under interleaving;
* :mod:`repro.chaos.points` — the process-wide switchboard hook sites
  query (a no-op unless a plan is installed).

The driver that runs seeded schedules against a live topology —
SIGKILLed primary, automated watchdog promotion, bitwise/budget checks
— is not part of the library: ``python benchmarks/chaos_drill.py`` (see
``docs/operations.md`` for reproducing a drill seed locally).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_RATES": "repro.chaos.plan",
    "FAULT_POINTS": "repro.chaos.plan",
    "FaultPlan": "repro.chaos.plan",
    "InjectedFault": "repro.chaos.plan",
    "active": "repro.chaos.points",
    "fire": "repro.chaos.points",
    "injected_counts": "repro.chaos.points",
    "install": "repro.chaos.points",
    "installed": "repro.chaos.points",
    "uninstall": "repro.chaos.points",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
