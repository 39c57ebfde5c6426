"""Campaign sharding: state partitioning for the ingestion service.

Campaign state (id tables, micro-batcher, aggregator) is partitioned
across N shards by a stable hash of the campaign id, so every claim for
a campaign lands on the same shard and shards share nothing.  Within
one process this bounds each pump step's working set; the same routing
function lets a deployment split shards across worker processes without
re-partitioning (see ROADMAP "Architecture").
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from typing import Optional, Sequence

import numpy as np

from repro.service.aggregator import IncrementalAggregator
from repro.service.batcher import MicroBatcher
from repro.service.snapshot import SlotIds, TruthSnapshot
from repro.privacy.ldp import LDPGuarantee


def shard_for(campaign_id: str, num_shards: int) -> int:
    """Deterministic, platform-stable shard index for a campaign.

    Uses CRC32 rather than :func:`hash` so routing survives process
    restarts and ``PYTHONHASHSEED`` (claims must never migrate between
    shards mid-campaign).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(campaign_id.encode("utf-8")) % num_shards


_READ_SERIALS = itertools.count(1)


class CampaignState:
    """Everything one shard holds for one campaign."""

    __slots__ = (
        "campaign_id",
        "object_ids",
        "object_index",
        "user_table",
        "user_index",
        "capacity",
        "cost",
        "batcher",
        "aggregator",
        "claims_accepted",
        "claims_by_slot",
        "user_lock",
        "pending_traces",
        "read_serial",
        "spec",
        "_last_read",
    )

    def __init__(
        self,
        campaign_id: str,
        object_ids: Sequence,
        *,
        capacity: int,
        aggregator: IncrementalAggregator,
        max_batch: int,
        user_ids: Optional[Sequence[str]] = None,
        cost: Optional[LDPGuarantee] = None,
    ) -> None:
        self.campaign_id = campaign_id
        self.object_ids = tuple(object_ids)
        self.object_index = {o: i for i, o in enumerate(self.object_ids)}
        if len(self.object_index) != len(self.object_ids):
            raise ValueError("object_ids must be unique")
        self.capacity = capacity
        self.user_table: list[str] = list(user_ids or [])
        if len(self.user_table) > capacity:
            raise ValueError(
                f"{len(self.user_table)} pre-registered users exceed "
                f"capacity {capacity}"
            )
        self.user_index = {u: i for i, u in enumerate(self.user_table)}
        if len(self.user_index) != len(self.user_table):
            # Two slots sharing one identity would let bulk admission
            # charge a user once for two slots' worth of claims.
            raise ValueError("user_ids must be unique")
        self.cost = cost
        self.batcher = MicroBatcher(max_batch)
        self.aggregator = aggregator
        self.claims_accepted = 0
        self.claims_by_slot = np.zeros(capacity, dtype=np.int64)
        # Guards user_table/user_index growth: slots are assigned on the
        # (possibly multi-threaded) submit path, and a torn check-then-
        # append would give two slots one identity — which would let
        # bulk admission under-charge privacy budget.
        self.user_lock = threading.Lock()
        # Sampled traces whose claims are in the batcher but whose batch
        # has not flushed yet.
        self.pending_traces: list = []
        # Unique in this process, so a re-registered campaign or a
        # resynced service never passes for the state a reader last saw.
        self.read_serial = next(_READ_SERIALS)
        #: The campaign's REGISTER body, set by whoever registered it:
        #: what a checkpoint stores and a worker's spec is projected from.
        self.spec: Optional[dict] = None
        # (read_key() it showed, what snapshot() last returned).
        self._last_read: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def last_snapshot(self) -> Optional[TruthSnapshot]:
        """What :meth:`snapshot` last returned (None before any read)."""
        last = self._last_read
        return None if last is None else last[1]

    def user_slot(self, user_id: str) -> int:
        """Slot for ``user_id``, assigning the next free one; -1 if full.

        Thread-safe: concurrent submitters for the same new user get
        the same slot.
        """
        slot = self.user_index.get(user_id)
        if slot is not None:
            return slot
        with self.user_lock:
            slot = self.user_index.get(user_id)
            if slot is not None:
                return slot
            if len(self.user_table) >= self.capacity:
                return -1
            slot = len(self.user_table)
            self.user_table.append(user_id)
            self.user_index[user_id] = slot
            return slot

    def ensure_placeholder_slots(self, top_slot: int) -> None:
        """Name every slot up to ``top_slot`` (``"slot:N"`` placeholders).

        The bulk path addresses users by slot index; this keeps the id
        table covering them so snapshots can name contributors.  Safe
        under concurrent callers — the extension happens in one locked
        sweep.
        """
        with self.user_lock:
            while len(self.user_table) <= top_slot:
                slot = len(self.user_table)
                user_id = f"slot:{slot}"
                self.user_table.append(user_id)
                self.user_index[user_id] = slot

    def object_slots(self, object_ids: Sequence) -> Optional[list[int]]:
        """Object indices for a submission's ids; None when any is unknown."""
        try:
            return list(map(self.object_index.__getitem__, object_ids))
        except KeyError:
            return None

    def read_key(self) -> tuple:
        """The one rule for when a read may reuse anything: equal keys
        mean equal reads, on a primary, over a worker proxy and off a
        replica.

        The aggregator's ``version`` moves whenever its truths, weights,
        counters or staged claims can; a read flushes its campaign
        first, so every claim that reached the batcher (and with it the
        contributors) has moved it too.  A user table that grew with
        nothing else moving only holds users with no claim aggregated
        yet, whom no read names.  The serial tells a re-registered
        campaign's fresh state from the one a reader last saw.
        """
        return (self.read_serial, self.aggregator.version)

    def snapshot(self) -> TruthSnapshot:
        """Immutable read-side view of the campaign's current state.

        Contributors are the users with an accepted claim (pre-registered
        users that never submitted are excluded), in slot order.  No
        per-user Python work: the weights are a slice of the array
        ``folded()`` returned, which the read owns (or, with some slot
        silent, gathered from it); ids are a slice of the table when
        every slot contributed, else a :class:`SlotIds` view resolved by
        whoever reads them.

        The caller flushes the campaign first, as
        :meth:`~repro.service.ingest.IngestService.snapshot` does.  A
        read whose :meth:`read_key` is the last read's returns the last
        snapshot itself.  A changed read costs one aggregator call
        (:meth:`~repro.service.aggregator.IncrementalAggregator.folded`,
        one RPC for a worker's campaign).
        """
        aggregator = self.aggregator
        aggregator.refresh()
        key = self.read_key()
        last = self._last_read
        if last is not None and last[0] == key:
            return last[1]
        snapshot = self._view(
            *aggregator.folded(),
            self.batcher.pending,
            None if last is None else last[1].contributor_ids,
        )
        self._last_read = (key, snapshot)
        return snapshot

    def folded_snapshot(self) -> TruthSnapshot:
        """What a replica serves: :meth:`snapshot` of the state its folds
        so far left, folding nothing in.

        A fold the replication log does not hold would set a replica
        apart from its primary, so claims the aggregator has staged stay
        staged and count in ``pending_claims``.
        """
        aggregator = self.aggregator
        truths, weights, seen = aggregator.folded()
        return self._view(
            truths,
            weights,
            seen,
            self.batcher.pending + aggregator.staged_claims,
        )

    def _view(
        self, truths, weights, seen, pending: int, ids=None
    ) -> TruthSnapshot:
        """A snapshot of arrays ``folded()`` returned, which the read
        owns (its contract), so nothing is copied again.  ``ids`` is an
        earlier snapshot's ``contributor_ids``, reused when it is the
        tuple this read would slice (the table is only appended to once
        reads begin)."""
        table = self.user_table
        filled = len(table)
        counts = self.claims_by_slot[:filled]
        if np.count_nonzero(counts) == filled:
            if type(ids) is not tuple or len(ids) != filled:
                ids = tuple(table[:filled])
            weights = weights[:filled]
        else:
            slots = np.flatnonzero(counts)
            ids = SlotIds(table, slots)
            weights = weights[slots]
        aggregator = self.aggregator
        return TruthSnapshot._owned(
            self.campaign_id, self.object_ids, truths, seen, ids, weights,
            aggregator.claims_ingested, aggregator.batches_ingested, pending,
        )


class _Run:
    """One campaign's scalar work items awaiting one column assembly.

    ``room`` starts at what the campaign's batcher took before emitting
    when the run opened and counts down by each item's claims, so the
    pump never measures the lists it grows.
    """

    __slots__ = ("slots", "lengths", "objects", "values", "room")

    def __init__(self, room: int) -> None:
        self.slots: list[int] = []
        self.lengths: list[int] = []
        self.objects: list[int] = []
        self.values: list[float] = []
        self.room = room


class Shard:
    """One shard: a bounded work queue plus the campaigns routed to it.

    Work items are pre-validated at ingress (admission, id resolution):
    ``(state, users, objects, values, enqueue_ts, trace)``, *scalar*
    from ``submit()`` (int slot, list of indices, tuple of values) or
    *array* from ``submit_columns()``.  The pump builds a campaign's
    scalar items into columns once per run; a run ends where pumping
    item by item would have emitted a batch, and before an array item
    of that campaign, so batches, WAL records and LSNs are the per-item
    loop's (``tests/service/per_item_reference.py``).

    A shard is single-consumer (one thread pumps) but safely
    multi-producer: reservation, enqueue and the pump's queue takeover
    run under a per-shard lock, so concurrent submitters cannot corrupt
    the queue or overfill it.  Campaign state itself is only ever
    touched by the pumping thread.

    When a durability hook is set (``shard.durability``), every
    micro-batch is appended to the write-ahead log immediately before
    it reaches the aggregator, and read-forced refreshes are logged so
    crash recovery can reproduce their timing.
    """

    def __init__(
        self, index: int, *, queue_capacity: int, durability=None
    ) -> None:
        self.index = index
        self._queue_capacity = queue_capacity
        self._queue: list[tuple] = []
        self._lock = threading.Lock()
        self._reserved = 0
        self.campaigns: dict[str, CampaignState] = {}
        self.durability = durability
        #: :class:`~repro.service.telemetry.ServiceTelemetry` hook, set
        #: by the owning service (None for bare shards in tests).
        self.telemetry = None
        self.claims_processed = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def register(self, state: CampaignState) -> None:
        self.campaigns[state.campaign_id] = state

    def try_reserve(self) -> bool:
        """Atomically claim one queue slot for a later ``enqueue``.

        Admission decides *before* charging privacy budget whether the
        queue will take the item: a full queue refuses here, so a
        refused submission spends no epsilon, and a concurrent producer
        cannot fill the slot between this check and the enqueue.
        """
        # acquire/try/finally rather than ``with``: this section and
        # enqueue's run on every submission, and on 3.11 the
        # context-manager protocol costs about as much again as the
        # lock itself.
        lock = self._lock
        lock.acquire()
        try:
            if len(self._queue) + self._reserved >= self._queue_capacity:
                return False
            self._reserved += 1
            return True
        finally:
            lock.release()

    def cancel_reservation(self) -> None:
        """Release a reservation whose submission was refused later."""
        with self._lock:
            self._reserved -= 1

    def enqueue(self, item: tuple) -> None:
        """Queue one work item in the slot a successful
        :meth:`try_reserve` holds for it.  Safe to call from multiple
        producer threads."""
        lock = self._lock
        lock.acquire()
        try:
            self._reserved -= 1
            self._queue.append(item)
        finally:
            lock.release()

    def pump(self) -> int:
        """Drain the queue into batchers/aggregators; return claims moved.

        Takes over the queued items under the lock, then processes them
        outside it, so producers are blocked only for the swap (items
        they enqueue mid-pump wait for the next pump).  An empty queue
        returns at once: an item enqueued as it is looked at waits for
        the next pump the same way.
        """
        if not self._queue:
            return 0
        with self._lock:
            queue = self._queue
            self._queue = []
        moved = 0
        telemetry = self.telemetry
        now = time.perf_counter() if telemetry is not None else 0.0
        runs: dict[CampaignState, _Run] = {}
        stamps: list[float] = []
        for state, users, objects, values, stamp, trace in queue:
            if self.campaigns.get(state.campaign_id) is not state:
                # The campaign was unregistered (or re-registered fresh)
                # after this item was queued; drop it unprocessed.
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
                    # The per-item loop would emit a batch here.
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

    def flush(self) -> None:
        """Pump, then push every partial batch into its aggregator."""
        self.pump()
        for state in self.campaigns.values():
            self._flush_state(state)

    def flush_campaign(self, campaign_id: str) -> None:
        """Pump, then flush/refine only one campaign.

        Snapshot reads use this so polling one campaign does not force
        refinements (or full refits) of every co-sharded campaign.
        """
        self.pump()
        self._flush_state(self.campaigns[campaign_id])

    # ------------------------------------------------------------------
    def _drain(self, state: CampaignState, run: _Run) -> None:
        """Build a run's columns, once, and hand them to the batcher."""
        self._add(
            state,
            np.repeat(run.slots, run.lengths),
            np.array(run.objects, dtype=np.int64),
            np.array(run.values, dtype=float),
        )

    def _add(self, state: CampaignState, users, objects, values) -> None:
        for batch in state.batcher.add_columns(users, objects, values):
            self._ingest(state, batch)
        # Contributor accounting happens here, when claims reach the
        # batcher: items of an unregistered campaign never count.
        state.claims_accepted += len(values)
        state.claims_by_slot += np.bincount(users, minlength=state.capacity)

    def _flush_state(self, state: CampaignState) -> None:
        tail = state.batcher.flush()
        if tail is not None:
            self._ingest(state, tail)
        if (
            self.durability is not None
            and state.aggregator.refresh_changes_state
        ):
            # Read-forced refreshes change when the streaming backend
            # folds its staged claims; logging them lets recovery replay
            # the exact same refinement timing.  Refreshes with nothing
            # staged (and the timing-independent full-refit backend)
            # need no record.
            self.durability.log_refresh(state.campaign_id)
        state.aggregator.refresh()

    def _ingest(self, state: CampaignState, batch) -> None:
        start = time.perf_counter()
        lsn = None
        if self.durability is not None:
            # The write-ahead property: the batch is in the log before
            # the aggregator ever sees it.
            lsn = self.durability.log_batch(state, batch)
        state.aggregator.ingest(batch)
        if self.telemetry is not None:
            self.telemetry.on_batch(
                self.index, state, time.perf_counter() - start, lsn
            )
