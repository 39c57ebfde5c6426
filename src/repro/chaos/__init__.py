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

from repro.chaos.plan import (
    DEFAULT_RATES,
    FAULT_POINTS,
    FaultPlan,
    InjectedFault,
)
from repro.chaos.points import (
    active,
    fire,
    injected_counts,
    install,
    installed,
    uninstall,
)

__all__ = [
    "DEFAULT_RATES",
    "FAULT_POINTS",
    "FaultPlan",
    "InjectedFault",
    "active",
    "fire",
    "injected_counts",
    "install",
    "installed",
    "uninstall",
]
