"""Policy-driven compaction.

Compaction (:meth:`DurabilityManager.compact`) rewrites the log down to
live records, but something has to *decide* to run it.  Leaving that to
the operator means the WAL grows until someone notices; wiring it to a
claim counter (the checkpoint cadence) misses the common failure mode —
a quiet service whose old segments sit on disk forever.

:class:`CompactionTrigger` closes that gap.  It evaluates a
:class:`CompactionPolicy` against the directory — total segment bytes,
and the age of the oldest segment — and names the threshold that
tripped.  It runs on the pump thread, from
:meth:`DurabilityManager.after_pump`, which then compacts on the spot:
checkpointing captures aggregator state and must not race aggregation,
and between batches on the pump thread is where it cannot.  An
evaluation is a few ``stat`` calls, made at most once per
``check_interval_seconds`` however often the service pumps, so the
ingest hot path pays one clock read per pump.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.durable.compaction import CompactionReport
from repro.durable.wal import list_segments
from repro.utils.validation import ensure_positive


@dataclass(frozen=True)
class CompactionPolicy:
    """When policy-driven compaction should trigger.

    Parameters
    ----------
    max_wal_bytes:
        Trigger once live WAL segments exceed this many bytes on disk
        (None disables the size trigger).
    max_record_age_seconds:
        Trigger once the oldest segment file is older than this
        (None disables the age trigger).  Age is measured from the
        segment's mtime — the last append it received — so an idle
        directory eventually compacts down to its checkpoint.
    min_interval_seconds:
        Floor between two policy-triggered compactions, so a directory
        hovering at a threshold does not compact on every evaluation.
    check_interval_seconds:
        How often the pump thread re-evaluates the policy.
    """

    max_wal_bytes: Optional[int] = 256 * 1024 * 1024
    max_record_age_seconds: Optional[float] = None
    min_interval_seconds: float = 30.0
    check_interval_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_wal_bytes is None and self.max_record_age_seconds is None:
            raise ValueError(
                "policy needs max_wal_bytes or max_record_age_seconds "
                "(both None would never trigger)"
            )
        if self.max_wal_bytes is not None:
            ensure_positive(self.max_wal_bytes, "max_wal_bytes")
        if self.max_record_age_seconds is not None:
            ensure_positive(
                self.max_record_age_seconds, "max_record_age_seconds"
            )
        ensure_positive(self.min_interval_seconds, "min_interval_seconds")
        ensure_positive(self.check_interval_seconds, "check_interval_seconds")

    # ------------------------------------------------------------------
    def evaluate(self, directory: Path, now: float) -> Optional[str]:
        """The reason compaction should run now, or None.

        Pure filesystem inspection; ``now`` is wall-clock time, the
        clock segment mtimes are on.
        """
        segments = list_segments(directory)
        if not segments:
            return None
        total = 0
        oldest_mtime = None
        for segment in segments:
            try:
                stat = segment.stat()
            except OSError:
                continue  # compaction/retention raced us; skip it
            total += stat.st_size
            if oldest_mtime is None or stat.st_mtime < oldest_mtime:
                oldest_mtime = stat.st_mtime
        if self.max_wal_bytes is not None and total > self.max_wal_bytes:
            return f"wal size {total} > {self.max_wal_bytes} bytes"
        if (
            self.max_record_age_seconds is not None
            and oldest_mtime is not None
            and now - oldest_mtime > self.max_record_age_seconds
        ):
            return (
                f"oldest segment {now - oldest_mtime:.0f}s old > "
                f"{self.max_record_age_seconds:.0f}s"
            )
        return None


class CompactionTrigger:
    """Decides when a :class:`CompactionPolicy` compacts a directory.

    The owner calls :meth:`due` with the monotonic time on every pump,
    compacts when it returns a reason, and reports the compaction back
    through :meth:`record_compaction`, so the ``min_interval_seconds``
    floor is measured from actual compactions.  Both intervals start at
    construction.  Single-threaded by design: only the pump thread
    calls in, and scrapers read the counters.
    """

    def __init__(self, directory: Path, policy: CompactionPolicy) -> None:
        self._directory = Path(directory)
        self.policy = policy
        now = time.monotonic()
        self._next_check = now + policy.check_interval_seconds
        self._last_compaction = now
        self.evaluations = 0
        self.policy_triggers = 0
        self.compactions_run = 0
        self.bytes_reclaimed = 0
        self.last_reason: Optional[str] = None

    # ------------------------------------------------------------------
    def due(self, now: float) -> Optional[str]:
        """The reason to compact at monotonic time ``now``, or None.

        Evaluates at most once per ``check_interval_seconds``, and an
        evaluation inside ``min_interval_seconds`` of the last
        compaction skips the filesystem and answers None.
        """
        if now < self._next_check:
            return None
        self._next_check = now + self.policy.check_interval_seconds
        self.evaluations += 1
        if now - self._last_compaction < self.policy.min_interval_seconds:
            return None
        reason = self.policy.evaluate(self._directory, time.time())
        if reason is not None:
            self.policy_triggers += 1
            self.last_reason = reason
        return reason

    def record_compaction(self, report: CompactionReport, now: float) -> None:
        """Note a policy-triggered compaction finished at ``now``."""
        self._last_compaction = now
        self.compactions_run += 1
        self.bytes_reclaimed += report.bytes_reclaimed

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-friendly counters (service scrape / drill report)."""
        return {
            "evaluations": self.evaluations,
            "policy_triggers": self.policy_triggers,
            "compactions_run": self.compactions_run,
            "bytes_reclaimed": self.bytes_reclaimed,
            "last_reason": self.last_reason,
        }
