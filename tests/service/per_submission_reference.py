"""Frozen ``IngestService.submit`` and ``Shard.pump`` of the scalar path.

This is the device path as it ran before a submission became one pass:
``submit()`` enters the ledger's re-entrant lock around a public
``BudgetLedger.charge`` (which enters it again), the work item is queued
by a second helper, shard lock sections use ``with``, and the pump
measures a run's value list after every item.  Object-id resolution and
the charge's log check are copied as they were too.  It exists only as
the reference the equivalence tests compare the library against; do not
"modernise" it.
"""

import time
from collections import namedtuple
from math import isfinite

import numpy as np

from repro.durable import records as rec
from repro.service.ingest import _ACCEPTED, IngestResult

_Run = namedtuple("_Run", "slots lengths objects values room")


def object_slots(state, object_ids):
    try:
        return list(map(state.object_index.__getitem__, object_ids))
    except KeyError:
        return None


def charge(ledger, user_id, guarantee, *, mechanism="", label=""):
    with ledger.lock:
        refusal, new_eps, new_delta = ledger._check(user_id, guarantee)
        if refusal:
            ledger.denied += 1
            return refusal
        ledger._spent_epsilon[user_id] = new_eps
        ledger._spent_delta[user_id] = new_delta
        ledger.admitted += 1
        if ledger._accountant is not None:
            ledger._accountant.record(
                user_id, guarantee, mechanism=mechanism, label=label
            )
        return ""


def log_charge(durability, user_id, guarantee, *, label=""):
    epsilon, delta = guarantee.epsilon, guarantee.delta
    for value in (user_id, epsilon, delta, label):
        rec.check_json_value(value)
    durability._wal.check_append()
    durability._pending_charges.append((user_id, epsilon, delta, label))
    durability.charges_logged += 1
    if durability._config.fsync == "always":
        durability.log_pending_charges()


def try_reserve(shard):
    with shard._lock:
        if len(shard._queue) + shard._reserved >= shard._queue_capacity:
            return False
        shard._reserved += 1
        return True


def cancel_reservation(shard):
    with shard._lock:
        shard._reserved -= 1


def enqueue(shard, item):
    with shard._lock:
        shard._reserved -= 1
        shard._queue.append(item)


def _enqueue(service, shard, state, users, objects, values, *, trace=None):
    n = len(values)
    now = time.perf_counter()
    if trace is not None:
        trace.enqueue_ts = now
    enqueue(shard, (state, users, objects, values, now, trace))
    service.stats.claims_accepted += n
    service.telemetry.shard_claims_accepted[shard.index] += n
    return _ACCEPTED[n] if n < len(_ACCEPTED) else IngestResult(n)


def submit(service, submission):
    """What ``service.submit(submission)`` did."""
    stats = service.stats
    stats.submissions += 1
    campaign_id = submission.campaign_id
    values = submission.values
    n = len(values)
    traces = service._traces
    trace = None if traces is None else traces.maybe_start(campaign_id, n)
    shard = service._campaign_shard.get(campaign_id)
    if shard is None:
        stats.rejected_unknown_campaign += n
        return IngestResult(0, n, "unknown-campaign")
    if n == 0:
        return _ACCEPTED[0]
    state = shard.campaigns[campaign_id]
    slots = object_slots(state, submission.object_ids)
    if slots is None:
        stats.rejected_unknown_object += n
        service.telemetry.shard_claims_rejected[shard.index] += n
        return IngestResult(0, n, "unknown-object")
    if type(values) is not tuple:
        values = tuple(values)
    if not all(map(isfinite, values)):
        stats.rejected_invalid_value += n
        service.telemetry.shard_claims_rejected[shard.index] += n
        return IngestResult(0, n, "invalid-value")
    user_id = submission.user_id
    slot = state.user_index.get(user_id)
    if slot is None and len(state.user_table) >= state.capacity:
        stats.rejected_capacity += n
        service.telemetry.shard_claims_rejected[shard.index] += n
        return IngestResult(0, n, "capacity")
    if slot is None and service._durability is not None:
        # Not part of the two-pass path: the admission rule that a new
        # user's id must be one a USERS record can carry, checked before
        # anything is reserved or charged, kept in step with the library.
        rec.check_json_value(user_id)
    if not try_reserve(shard):
        stats.rejected_overflow += n
        service.telemetry.shard_claims_rejected[shard.index] += n
        return IngestResult(0, n, "overflow")
    try:
        cost = state.cost
        ledger = service._ledger
        if cost is not None and ledger is not None:
            with ledger.lock:
                refused = charge(ledger, user_id, cost, label=campaign_id)
                if not refused and service._durability is not None:
                    log_charge(
                        service._durability, user_id, cost, label=campaign_id
                    )
            if refused:
                cancel_reservation(shard)
                stats.rejected_budget += n
                service.telemetry.shard_claims_rejected[shard.index] += n
                return IngestResult(0, n, "budget")
        if slot is None:
            slot = state.user_slot(user_id)
            if slot < 0:
                cancel_reservation(shard)
                stats.rejected_capacity += n
                service.telemetry.shard_claims_rejected[shard.index] += n
                return IngestResult(0, n, "capacity")
    except BaseException:
        cancel_reservation(shard)
        raise
    return _enqueue(service, shard, state, slot, slots, values, trace=trace)


def _drain(shard, state, run):
    shard._add(
        state,
        np.repeat(run.slots, run.lengths),
        np.array(run.objects, dtype=np.int64),
        np.array(run.values, dtype=float),
    )


def pump(shard) -> int:
    """What ``shard.pump()`` did."""
    with shard._lock:
        queue = shard._queue
        shard._queue = []
    moved = 0
    telemetry = shard.telemetry
    now = time.perf_counter() if telemetry is not None else 0.0
    runs = {}
    stamps = []
    for state, users, objects, values, stamp, trace in queue:
        if shard.campaigns.get(state.campaign_id) is not state:
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
                room = batcher.capacity - batcher.pending
                run = runs[state] = _Run([], [], [], [], room)
            run.slots.append(users)
            run.lengths.append(n)
            run.objects.extend(objects)
            run.values.extend(values)
            if len(run.values) >= run.room:
                _drain(shard, state, runs.pop(state))
        else:
            if state in runs:
                _drain(shard, state, runs.pop(state))
            shard._add(state, users, objects, values)
    for state, run in runs.items():
        _drain(shard, state, run)
    if telemetry is not None:
        telemetry.on_dequeue(shard.index, now, stamps)
    shard.claims_processed += moved
    return moved


def install(service) -> None:
    """Make ``service`` submit and pump scalar work as it used to."""
    service.submit = submit.__get__(service)
    for shard in service._shards:
        shard.pump = pump.__get__(shard)
