"""Deterministic, seed-driven fault schedules.

A :class:`FaultPlan` answers one question at every named fault point —
"does the fault fire *this* time?" — and the answer is a pure function
of ``(seed, point, how many times that point has fired before)``.  Each
point draws from its own child stream derived via
:func:`repro.utils.rng.derive_seed`, so the schedule at one point never
shifts when another point is queried more or less often (adding a WAL
fault cannot move a network fault), and an interleaved multi-threaded
trace still gives every point an identical per-point schedule.

That per-point independence is what makes chaos drills replayable:
``benchmarks/chaos_drill.py`` records only the seed, and anyone can
re-run the exact same injection schedule locally (see
``docs/operations.md``).  The property test in
``tests/properties/test_chaos_properties.py`` pins the contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import ensure_in_range

#: Named fault points threaded through the stack.  The mapping is
#: point -> action tag (what the hook site does when the point fires).
FAULT_POINTS = {
    # repro.durable.wal — storage faults.
    "wal.write": "io-error",  # frame write raises OSError
    "wal.fsync": "io-error",  # group fsync raises OSError
    "wal.torn_tail": "torn-tail",  # partial frame + crash mid-append
    # repro.net.transport — network faults.
    "net.connect": "refused",  # dial attempt refused
    "net.send": "reset",  # connection reset mid-send
    "net.delay": "delay",  # send stalls (slow network / partition tail)
    # repro.net.supervisor / replication + fabric pools — process faults.
    "proc.kill": "sigkill",  # SIGKILL a pooled process
    "proc.stall": "stall",  # slow-host stall before an RPC
    "proc.spawn": "spawn-refused",  # replacement host launch refused
}

#: Points whose injected fault carries a duration (seconds).
_DELAY_POINTS = frozenset({"net.delay", "proc.stall"})

#: Conservative default rates: rare enough that a drill makes steady
#: progress, frequent enough that every fault class fires within a
#: smoke-sized schedule.
DEFAULT_RATES = {
    "wal.write": 0.0,
    "wal.fsync": 0.0,
    "wal.torn_tail": 0.0,
    "net.connect": 0.02,
    "net.send": 0.01,
    "net.delay": 0.02,
    "proc.kill": 0.0,
    "proc.stall": 0.02,
    "proc.spawn": 0.0,
}


@dataclass(frozen=True)
class InjectedFault:
    """One fault the plan decided to fire.

    Attributes
    ----------
    point:
        The fault point name (a :data:`FAULT_POINTS` key).
    index:
        Zero-based query index at that point when it fired.
    action:
        The action tag the hook site executes (``"io-error"``,
        ``"reset"``, ``"delay"``, ...).
    seconds:
        Duration for delay-class faults, else 0.0.
    """

    point: str
    index: int
    action: str
    seconds: float = 0.0


class FaultPlan:
    """A reproducible fault schedule over the named fault points.

    Parameters
    ----------
    seed:
        The schedule is a pure function of this integer.
    rates:
        Per-point firing probability overrides (absent points keep
        :data:`DEFAULT_RATES`; unknown names are rejected).
    delay_range:
        ``(lo, hi)`` seconds drawn for delay-class faults.
    max_per_point:
        Hard cap on fires per point (None = unbounded) — keeps a drill
        from starving itself on an aggressive rate.
    """

    def __init__(
        self,
        seed: int,
        *,
        rates: Optional[dict] = None,
        delay_range: tuple = (0.01, 0.25),
        max_per_point: Optional[int] = 32,
    ) -> None:
        unknown = set(rates or ()) - set(FAULT_POINTS)
        if unknown:
            raise ValueError(
                f"unknown fault point(s) {sorted(unknown)}; known: "
                f"{sorted(FAULT_POINTS)}"
            )
        self.seed = int(seed)
        self.rates = dict(DEFAULT_RATES)
        if rates:
            self.rates.update(rates)
        for point, rate in self.rates.items():
            ensure_in_range(rate, f"rates[{point!r}]", 0.0, 1.0)
        lo, hi = delay_range
        if not 0.0 <= lo <= hi:
            raise ValueError(
                f"delay_range must satisfy 0 <= lo <= hi, got "
                f"{delay_range}"
            )
        self.delay_range = (float(lo), float(hi))
        self.max_per_point = max_per_point
        self._lock = threading.Lock()
        self._streams: dict = {}
        self._queries: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        #: Every injected fault, in firing order (the drill report).
        self.injected: list[InjectedFault] = []

    # ------------------------------------------------------------------
    def fire(self, point: str) -> Optional[InjectedFault]:
        """One query at ``point``; the fault to inject, or None.

        Thread-safe: hook sites live on whichever thread drains the
        WAL, link threads, and the pump thread simultaneously.  Determinism is
        per point — the nth query at a point always gets the same
        answer for a given seed, regardless of interleaving.
        """
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        with self._lock:
            rng = self._streams.get(point)
            if rng is None:
                rng = self._streams[point] = as_generator(
                    derive_seed(self.seed, "chaos", point)
                )
            index = self._queries.get(point, 0)
            self._queries[point] = index + 1
            rate = self.rates[point]
            fires = rate > 0.0 and float(rng.random()) < rate
            if fires and self.max_per_point is not None:
                fires = self._fired.get(point, 0) < self.max_per_point
            if not fires:
                return None
            seconds = 0.0
            if point in _DELAY_POINTS:
                seconds = float(rng.uniform(*self.delay_range))
            fault = InjectedFault(
                point, index, FAULT_POINTS[point], seconds
            )
            self._fired[point] = self._fired.get(point, 0) + 1
            self.injected.append(fault)
            return fault

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Injected fires per point (telemetry / drill report)."""
        with self._lock:
            return dict(self._fired)

    def queries(self) -> dict[str, int]:
        """Queries per point (how often each hook site was reached)."""
        with self._lock:
            return dict(self._queries)

    def describe(self) -> dict:
        """JSON-friendly plan summary for drill reports."""
        with self._lock:
            return {
                "seed": self.seed,
                "rates": {
                    point: rate
                    for point, rate in sorted(self.rates.items())
                    if rate > 0.0
                },
                "delay_range": list(self.delay_range),
                "max_per_point": self.max_per_point,
                "injected": [
                    {
                        "point": fault.point,
                        "index": fault.index,
                        "action": fault.action,
                        "seconds": fault.seconds,
                    }
                    for fault in self.injected
                ],
            }
