"""Sampled per-submission tracing: where did a submission's time go?

A :class:`SubmissionTrace` is a lightweight span record following one
sampled submission through the pipeline's stages::

    submit -> enqueue -> flush -> durable -> aggregated

* ``submit``/``enqueue`` are stamped on the ingest path (admission and
  queueing happen in the same call, so the gap is validation +
  admission cost);
* ``flush`` is stamped when the submission's micro-batch leaves the
  batcher and is appended to the WAL (when one is attached);
* ``aggregated`` is stamped when the batch returns from the
  aggregator — in worker/fabric mode that is the moment the batch
  frame is handed to the transport, since remote aggregation
  completes asynchronously;
* ``durable`` is stamped lazily, the first time the WAL's durable-LSN
  watermark passes the trace's batch LSN (the pump's group commit;
  without durability it collapses onto ``flush``).

Sampling is 1-in-N per submit call (``sample_every``), so tracing cost
is one integer modulo on the unsampled hot path and a tiny object
allocation per sampled submission — never per claim.  Completed traces
land in a bounded ring; :meth:`TraceCollector.records` renders them as
JSON-friendly dicts with both absolute stage offsets and per-stage
deltas, which is what the benchmark artifacts store.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Optional

#: Stage names, in pipeline order.
STAGES = ("submit", "enqueue", "flush", "durable", "aggregated")


class SubmissionTrace:
    """One sampled submission's span record (timestamps in perf-counter
    seconds; ``None`` until the stage happens)."""

    __slots__ = (
        "trace_id",
        "campaign_id",
        "claims",
        "submit_ts",
        "enqueue_ts",
        "flush_ts",
        "durable_ts",
        "aggregated_ts",
        "lsn",
    )

    def __init__(
        self, trace_id: int, campaign_id: str, claims: int
    ) -> None:
        self.trace_id = trace_id
        self.campaign_id = campaign_id
        self.claims = claims
        self.submit_ts = time.perf_counter()
        self.enqueue_ts: Optional[float] = None
        self.flush_ts: Optional[float] = None
        self.durable_ts: Optional[float] = None
        self.aggregated_ts: Optional[float] = None
        self.lsn: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.durable_ts is not None and self.aggregated_ts is not None

    def as_dict(self) -> dict:
        """JSON-friendly record: stage offsets + deltas, in seconds."""
        stamps = {
            "submit": self.submit_ts,
            "enqueue": self.enqueue_ts,
            "flush": self.flush_ts,
            "durable": self.durable_ts,
            "aggregated": self.aggregated_ts,
        }
        offsets = {
            stage: (None if ts is None else ts - self.submit_ts)
            for stage, ts in stamps.items()
        }
        deltas = {}
        previous = self.submit_ts
        for stage in STAGES[1:]:
            ts = stamps[stage]
            if ts is None or previous is None:
                deltas[stage] = None
            else:
                deltas[stage] = max(ts - previous, 0.0)
            # The durable stamp lands after "aggregated" was already
            # stamped (the group commit follows the pump); deltas stay
            # stage-over-previous-stamped-stage rather than going
            # negative.
            if ts is not None:
                previous = ts
        return {
            "trace_id": self.trace_id,
            "campaign_id": self.campaign_id,
            "claims": self.claims,
            "lsn": self.lsn,
            "stage_offsets_s": offsets,
            "stage_deltas_s": deltas,
            "total_s": offsets["aggregated"],
        }


class TraceCollector:
    """Samples, tracks, and completes submission traces.

    ``sample_every=0`` disables sampling entirely (``maybe_start``
    short-circuits on one integer check).  The collector keeps at most
    ``max_records`` completed traces (a ring: old traces age out) and
    at most ``max_pending`` in-flight ones, so a burst can never grow
    memory without bound.
    """

    def __init__(
        self,
        sample_every: int = 0,
        *,
        max_records: int = 4096,
        max_pending: int = 1024,
    ) -> None:
        if sample_every < 0:
            raise ValueError(
                f"sample_every must be >= 0, got {sample_every}"
            )
        self.sample_every = sample_every
        self._seen = 0
        self._next_id = 0
        #: Traces whose batch is logged but not yet durable, in LSN
        #: order (group commits advance the watermark monotonically).
        self._awaiting_durable: deque[SubmissionTrace] = deque()
        self._completed: deque[SubmissionTrace] = deque(
            maxlen=max_records
        )
        self._max_pending = max_pending

    @property
    def enabled(self) -> bool:
        return self.sample_every > 0

    # ------------------------------------------------------------------
    def maybe_start(
        self, campaign_id: str, claims: int
    ) -> Optional[SubmissionTrace]:
        """1-in-N sampling decision; returns a live trace or None."""
        every = self.sample_every
        if not every:
            return None
        self._seen += 1
        if self._seen % every:
            return None
        self._next_id += 1
        return SubmissionTrace(self._next_id, campaign_id, claims)

    def on_flushed(
        self, trace: SubmissionTrace, lsn: Optional[int]
    ) -> None:
        """The trace's batch left the batcher (and hit the WAL)."""
        now = time.perf_counter()
        trace.flush_ts = now
        trace.aggregated_ts = now
        trace.lsn = lsn
        if lsn is None:
            # Volatile service: there is no durability stage; the claim
            # is as durable as it will ever be the moment it flushed.
            trace.durable_ts = now
            self._completed.append(trace)
        elif len(self._awaiting_durable) < self._max_pending:
            self._awaiting_durable.append(trace)
        else:
            self._completed.append(trace)  # shed, durable never stamps

    def resolve_durable(self, durable_lsn: int) -> int:
        """Stamp every pending trace the watermark now covers."""
        resolved = 0
        pending = self._awaiting_durable
        while pending and pending[0].lsn <= durable_lsn:
            trace = pending.popleft()
            trace.durable_ts = time.perf_counter()
            self._completed.append(trace)
            resolved += 1
        return resolved

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Completed traces as JSON-friendly dicts (oldest first)."""
        return [trace.as_dict() for trace in self._completed]

    def __len__(self) -> int:
        return len(self._completed)

    def dump(self, path: str) -> int:
        """Write all completed traces as a JSON artifact; returns count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "sample_every": self.sample_every,
                    "traces": records,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        return len(records)
