"""Frozen one-item-at-a-time ``Shard.pump``.

This is the pump loop ``repro.service.shard`` ran before scalar work
items were accumulated per campaign: every queued item goes through
``MicroBatcher.add_columns`` on its own, in queue order, with one
queue-wait observation and one contributor-accounting step per item.
A scalar item (``submit()``: int slot, list of object indices, tuple of
values) is first turned into the three arrays ``submit()`` used to
enqueue.  It exists only as the reference the equivalence tests compare
the library against; do not "modernise" it.
"""

import time

import numpy as np


def as_columns(users, objects, values):
    """The array form of a work item's payload."""
    if type(users) is int:
        n = len(values)
        return (
            np.full(n, users, dtype=np.int64),
            np.fromiter(objects, dtype=np.int64, count=n),
            np.asarray(values, dtype=float),
        )
    return users, objects, values


def pump(shard) -> int:
    """What ``shard.pump()`` did, one work item at a time."""
    with shard._lock:
        queue = shard._queue
        shard._queue = []
    moved = 0
    telemetry = shard.telemetry
    now = time.perf_counter() if telemetry is not None else 0.0
    for item in queue:
        state = item[0]
        if shard.campaigns.get(state.campaign_id) is not state:
            continue
        user_slots, object_slots, values = as_columns(*item[1:4])
        if telemetry is not None:
            telemetry.queue_wait[shard.index].observe(now - item[4])
            if item[5] is not None:
                state.pending_traces.append(item[5])
        for batch in state.batcher.add_columns(
            user_slots, object_slots, values
        ):
            shard._ingest(state, batch)
        n = len(values)
        state.claims_accepted += n
        if n and (user_slots == user_slots[0]).all():
            state.claims_by_slot[user_slots[0]] += n
        else:
            state.claims_by_slot += np.bincount(
                user_slots, minlength=state.capacity
            )
        moved += n
    shard.claims_processed += moved
    return moved


def install(service) -> None:
    """Make every shard of ``service`` pump one item at a time."""
    for shard in service._shards:
        shard.pump = pump.__get__(shard)
