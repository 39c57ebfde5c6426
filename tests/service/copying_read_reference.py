"""Frozen copying read path of the in-process service.

This is how a primary read built its snapshot before the read path
took one copy of each array it returns: ``folded()`` copied the
estimator's arrays (GTM and CATD normalising their weights through the
masked ``_normalise_active``), ``CampaignState._view`` copied the
weights again and built the snapshot through ``TruthSnapshot``'s
public constructor, and ``Shard.pump`` took the lock and told the
telemetry about an empty queue too.  It exists only as the reference the
read-path property compares against; do not "modernise" it.

:func:`installed` swaps these into the library's classes for the
duration of a ``with`` block, so one service can run the frozen path
while another, outside the block, runs the library's.
"""

import contextlib
import time

import numpy as np

from repro.service.aggregator import StreamingAggregator
from repro.service.shard import CampaignState, Shard, _Run
from repro.service.snapshot import SlotIds, TruthSnapshot
from repro.truthdiscovery.streaming import StreamingCRH


def normalise_active(weights, active):
    """Mean-1 weights over ``active`` users; inactive users keep 1."""
    out = np.ones(weights.shape[0])
    if active.any():
        total = weights[active].sum()
        if total > 0:
            out[active] = weights[active] * (active.sum() / total)
    return out


def folded(self):
    stream = self._stream
    if isinstance(stream, StreamingCRH):
        weights = stream._weights.copy()
    else:
        weights = normalise_active(stream._weights, stream._active)
    return stream._truths.copy(), weights, stream._seen_objects.copy()


def view(self, truths, weights, seen, pending, ids=None):
    table = self.user_table
    filled = len(table)
    counts = self.claims_by_slot[:filled]
    if np.count_nonzero(counts) == filled:
        if type(ids) is not tuple or len(ids) != filled:
            ids = tuple(table[:filled])
        weights = weights[:filled].copy()
    else:
        slots = np.flatnonzero(counts)
        ids = SlotIds(table, slots)
        weights = weights[slots]
    return TruthSnapshot(
        campaign_id=self.campaign_id,
        object_ids=self.object_ids,
        truths=truths,
        seen_objects=seen,
        contributor_ids=ids,
        contributor_weights=weights,
        claims_ingested=self.aggregator.claims_ingested,
        batches_ingested=self.aggregator.batches_ingested,
        pending_claims=pending,
    )


def pump(self):
    with self._lock:
        queue = self._queue
        self._queue = []
    moved = 0
    telemetry = self.telemetry
    now = time.perf_counter() if telemetry is not None else 0.0
    runs = {}
    stamps = []
    for state, users, objects, values, stamp, trace in queue:
        if self.campaigns.get(state.campaign_id) is not state:
            continue
        stamps.append(stamp)
        if trace is not None:
            state.pending_traces.append(trace)
        n = len(values)
        moved += n
        if type(users) is int:
            run = runs.get(state)
            if run is None:
                batcher = state.batcher
                run = runs[state] = _Run(batcher.capacity - batcher.pending)
            run.slots.append(users)
            run.lengths.append(n)
            run.objects.extend(objects)
            run.values.extend(values)
            run.room -= n
            if run.room <= 0:
                self._drain(state, runs.pop(state))
        else:
            if state in runs:
                self._drain(state, runs.pop(state))
            self._add(state, users, objects, values)
    for state, run in runs.items():
        self._drain(state, run)
    if telemetry is not None:
        telemetry.on_dequeue(self.index, now, stamps)
    self.claims_processed += moved
    return moved


_FROZEN = (
    (StreamingAggregator, "folded", folded),
    (CampaignState, "_view", view),
    (Shard, "pump", pump),
)


@contextlib.contextmanager
def installed():
    """Run the frozen read path inside the block."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _FROZEN]
    for cls, name, function in _FROZEN:
        setattr(cls, name, function)
    try:
        yield
    finally:
        for cls, name, function in saved:
            setattr(cls, name, function)
