"""The claim-ingestion service: validation, admission, routing, pumping.

:class:`IngestService` is the front door of the high-throughput path.
One call-flow per claim source:

* ``submit(claim_submission)`` — the protocol path: one
  :class:`~repro.crowdsensing.messages.ClaimSubmission` at a time, as
  the crowdsensing server receives them off the wire;
* ``submit_columns(campaign_id, user_slots, object_slots, values)`` —
  the bulk path: aligned index/value columns, zero per-claim Python
  objects (gateways that already decode to arrays use this).

Every submission is validated (known campaign, known objects, finite
values), admission-controlled against the optional
:class:`~repro.service.ledger.BudgetLedger`, resolved to integer
user/object slots, and queued on the owning shard.  ``pump()`` moves
queued work into micro-batchers and incremental aggregators;
``snapshot(campaign_id)`` returns fresh truths at any time.

The service is single-threaded by design — shards are a state
partition, not threads — so callers control when aggregation work
happens (after each drain, on a timer, ...).  Under a sharded
:class:`~repro.service.topology.Topology` the aggregation half of each
pump moves into shard-worker processes, which aggregate concurrently;
validation, admission, and durability logging stay in this process.
This module is the data plane only: what a topology starts, and how it
stops, is :class:`~repro.service.topology.Deployment`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.privacy.ldp import LDPGuarantee
from repro.service.aggregator import make_aggregator, resolve_backend
from repro.service.ledger import BudgetLedger
from repro.service.shard import CampaignState, Shard, shard_for
from repro.service.snapshot import TruthSnapshot
from repro.service.topology import Topology
from repro.utils.logging import get_logger
from repro.utils.validation import ensure_in_range, ensure_int

if TYPE_CHECKING:  # annotations only: a standby never loads the simulation
    from repro.crowdsensing.messages import ClaimSubmission

_LOGGER = get_logger("service.ingest")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the ingestion service (validated on construction)."""

    num_shards: int = 4
    max_batch: int = 1024
    queue_capacity: int = 65536
    decay: float = 1.0
    refine_sweeps: int = 2
    refine_every: int = 8192
    full_refit_max_cells: int = 4096
    #: Metric collection (:mod:`repro.obs`).  ``False`` swaps the
    #: registry for the null one — every observation becomes a no-op.
    obs: bool = True
    #: Per-submission tracing: sample 1 in N submit calls (0 = off).
    trace_sample_every: int = 0

    def __post_init__(self) -> None:
        ensure_int(self.num_shards, "num_shards", minimum=1)
        ensure_int(self.max_batch, "max_batch", minimum=1)
        ensure_int(self.queue_capacity, "queue_capacity", minimum=1)
        ensure_int(self.refine_sweeps, "refine_sweeps", minimum=1)
        ensure_int(self.refine_every, "refine_every", minimum=1)
        ensure_int(self.trace_sample_every, "trace_sample_every", minimum=0)
        ensure_in_range(self.decay, "decay", 0.0, 1.0, low_inclusive=False)


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one submit call: claims accepted, or why not."""

    accepted: int
    rejected: int = 0
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.rejected == 0


#: Prebuilt accepted results by claim count: a result is a value, so an
#: accepted submission of up to this many claims shares one instead of
#: allocating its own.
_ACCEPTED = tuple(IngestResult(n) for n in range(256))


class ServiceStats:
    """Running counters across the whole service (all shards).

    Historically a plain bag of counters; now a *view*: the hot-path
    counters (submissions, acceptances, rejections by reason) are still
    plain attributes the ingest path bumps with one ``+=``, but the WAL
    counters read live from the attached durability manager — a stats
    read can never see stale commit/lag numbers, no matter when the
    last pump sampled them.  The full metric surface (histograms,
    per-shard series, worker processes) lives on
    ``IngestService.metrics_snapshot()``; this class remains the
    stable, cheap summary the benchmarks and tests consume.
    """

    def __init__(self, service: Optional["IngestService"] = None) -> None:
        self._service = service
        self.submissions = 0
        self.claims_accepted = 0
        self.rejected_unknown_campaign = 0
        self.rejected_unknown_object = 0
        self.rejected_invalid_value = 0
        self.rejected_capacity = 0
        self.rejected_budget = 0
        self.rejected_overflow = 0
        #: Read-path observability: completed ``snapshot()`` calls and
        #: the wall seconds they cost end-to-end (pump + deferred
        #: aggregation + view construction).
        self.snapshot_reads = 0
        self.snapshot_read_seconds = 0.0
        #: Reads that found the campaign unchanged since its last read
        #: and returned that snapshot again (counted in
        #: ``snapshot_reads`` too).
        self.snapshot_reads_unchanged = 0

    # ------------------------------------------------------------------
    # WAL observability (zero while running volatile): records
    # appended, group commits completed, accumulated commit seconds
    # (writev+fdatasync wall time, on the thread that drains), and the
    # durable-LSN lag (records appended but not yet committed — the
    # staged suffix a crash could lose).  Read live from the WAL
    # itself, whose counters stay readable after it closes.
    def _live_wal(self):
        service = self._service
        if service is None or service.durability is None:
            return None
        return service.durability.wal

    @property
    def wal_appends(self) -> int:
        wal = self._live_wal()
        return 0 if wal is None else wal.records_written

    @property
    def wal_commit_groups(self) -> int:
        wal = self._live_wal()
        return 0 if wal is None else wal.groups_committed

    @property
    def wal_commit_seconds(self) -> float:
        wal = self._live_wal()
        return 0.0 if wal is None else wal.commit_seconds

    @property
    def wal_durable_lag(self) -> int:
        wal = self._live_wal()
        return 0 if wal is None else wal.last_lsn - wal.durable_lsn

    @property
    def claims_rejected(self) -> int:
        """All refused claims — accepted + rejected == submitted claims.

        Backpressure refusals (``rejected_overflow``) are included: the
        caller was told to back off and should retry.
        """
        return (
            self.rejected_unknown_campaign
            + self.rejected_unknown_object
            + self.rejected_invalid_value
            + self.rejected_capacity
            + self.rejected_budget
            + self.rejected_overflow
        )

    def as_dict(self) -> dict:
        """Counters as a flat JSON-friendly mapping (benchmark output)."""
        out = {
            "submissions": self.submissions,
            "claims_accepted": self.claims_accepted,
            "claims_rejected": self.claims_rejected,
            "rejected_unknown_campaign": self.rejected_unknown_campaign,
            "rejected_unknown_object": self.rejected_unknown_object,
            "rejected_invalid_value": self.rejected_invalid_value,
            "rejected_capacity": self.rejected_capacity,
            "rejected_budget": self.rejected_budget,
            "rejected_overflow": self.rejected_overflow,
            "snapshot_reads": self.snapshot_reads,
            "snapshot_read_seconds": self.snapshot_read_seconds,
            "snapshot_reads_unchanged": self.snapshot_reads_unchanged,
            "wal_appends": self.wal_appends,
            "wal_commit_groups": self.wal_commit_groups,
            "wal_commit_seconds": self.wal_commit_seconds,
            "wal_durable_lag": self.wal_durable_lag,
        }
        service = self._service
        if service is not None:
            telemetry = service.telemetry
            out["queue_depths"] = service.queue_depths()
            out["shards"] = [
                {
                    "accepted": telemetry.shard_claims_accepted[i],
                    "rejected": telemetry.shard_claims_rejected[i],
                    "processed": shard.claims_processed,
                    "queue_depth": shard.queue_depth,
                }
                for i, shard in enumerate(service._shards)
            ]
        return out


class IngestService:
    """Sharded, micro-batched claim-ingestion pipeline.

    Parameters
    ----------
    config:
        Service tuning; defaults to :class:`ServiceConfig`'s defaults
        (4 shards, 1024-claim micro-batches, 65 536-item shard queues).
    ledger:
        Optional privacy-budget admission control.  Campaigns registered
        with a per-submission ``cost`` charge it on every accepted
        submission; exhausted users are rejected with reason
        ``"budget"``.
    topology:
        The deployment shape, one :class:`~repro.service.topology.
        Topology` value (default ``Topology.in_process()``): shard
        worker processes (fail-fast or supervised) or warm standbys,
        each optionally with ``durability=`` — every registration,
        admitted budget charge and flushed micro-batch written ahead
        to a log that :class:`~repro.durable.recovery.RecoveryManager`
        rebuilds the state from.  Call :meth:`close` (or use the service as a
        context manager) to stop whatever the topology started.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        topology: Optional[Topology] = None,
        ledger: Optional[BudgetLedger] = None,
    ) -> None:
        if topology is None:
            topology = Topology.in_process()
        self._topology = topology
        self._config = config if config is not None else ServiceConfig()
        self._ledger = ledger
        self._durability = None
        self._closed = False
        self._shards = [
            Shard(i, queue_capacity=self._config.queue_capacity)
            for i in range(self._config.num_shards)
        ]
        from repro.service.telemetry import ServiceTelemetry

        self.telemetry = ServiceTelemetry(
            self._config.num_shards,
            enabled=self._config.obs,
            trace_sample_every=self._config.trace_sample_every,
        )
        for shard in self._shards:
            shard.telemetry = self.telemetry
        #: The trace sampler, or None when sampling is off (the submit
        #: paths then skip it without a call).
        traces = self.telemetry.traces
        self._traces = traces if traces.enabled else None
        self._campaign_shard: dict[str, Shard] = {}
        self.stats = ServiceStats(self)
        self._pumps = 0
        #: What the topology started, and the one way to stop it.
        self._deployment = topology.start(self)
        self._pool = self._deployment.pool

    # ------------------------------------------------------------------
    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def topology(self) -> Topology:
        """The deployment shape this service was constructed with."""
        return self._topology

    @property
    def replication(self):
        """The durability manager's WAL sender (None without one)."""
        durability = self._durability
        return None if durability is None else durability.replication

    @property
    def standbys(self):
        """The owned standby pool (None unless ``replicated``)."""
        return self._deployment.standbys

    @property
    def status_server(self):
        """The primary's status listener (None unless auto_failover)."""
        return self._deployment.status_server

    @property
    def watchdog_process(self):
        """The first detached watchdog (None unless auto_failover)."""
        return next(iter(self._deployment.watchdogs), None)

    @property
    def watchdog_processes(self):
        """Every detached watchdog process (the quorum fleet)."""
        return list(self._deployment.watchdogs)

    @property
    def ledger(self) -> Optional[BudgetLedger]:
        return self._ledger

    @property
    def durability(self):
        """The attached durability manager (None when running volatile)."""
        return self._durability

    def attach_durability(self, durability) -> None:
        """Wire a durability manager into the pipeline.

        The manager binds first: it logs the service configuration and,
        when the service already holds campaigns or spent budget,
        checkpoints them — which is how crash recovery's ``resume``, a
        standby's promotion and a late attach all make existing state
        recoverable.  Only a bind that succeeded is wired into the
        shards; a failed one leaves the service volatile.
        """
        if self._durability is not None:
            raise RuntimeError("a durability manager is already attached")
        durability.bind(self)
        self._durability = durability
        for shard in self._shards:
            shard.durability = durability

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def num_workers(self) -> int:
        """Worker processes behind the shards (0 = fully in-process)."""
        return 0 if self._pool is None else self._pool.num_workers

    @property
    def worker_pool(self):
        """The attached worker pool (None when running in-process)."""
        return self._pool

    @property
    def campaign_ids(self) -> list[str]:
        return sorted(self._campaign_shard)

    def has_campaign(self, campaign_id: str) -> bool:
        """O(1) registration check (``campaign_ids`` sorts every call)."""
        return campaign_id in self._campaign_shard

    def shard_of(self, campaign_id: str) -> int:
        """Shard index owning ``campaign_id`` (registered or not)."""
        return shard_for(campaign_id, len(self._shards))

    # ------------------------------------------------------------------
    def register_campaign(
        self,
        campaign_id: str,
        object_ids: Sequence,
        *,
        max_users: int,
        user_ids: Optional[Sequence[str]] = None,
        method: str = "crh",
        aggregator: str = "auto",
        cost: Optional[LDPGuarantee] = None,
        **method_kwargs,
    ) -> int:
        """Create campaign state on its shard; returns the shard index.

        ``max_users`` caps the user-slot table (claims from additional
        distinct users are rejected with reason ``"capacity"``).
        ``cost`` is the per-submission privacy charge applied through
        the service's ledger, if one is configured.
        """
        if campaign_id in self._campaign_shard:
            raise ValueError(f"campaign {campaign_id!r} already registered")
        ensure_int(max_users, "max_users", minimum=1)
        object_ids = tuple(object_ids)
        cfg = self._config
        # Resolve "auto" to the concrete backend once, up front: the
        # durable REGISTER record and the worker spec both persist the
        # *resolved* kind, so replaying them is immune to future
        # changes in the auto-selection rules (a logged campaign's
        # backend — and therefore its aggregation semantics — is fixed
        # at registration time).
        aggregator = resolve_backend(
            max_users,
            len(object_ids),
            kind=aggregator,
            method=method,
            decay=cfg.decay,
            full_refit_max_cells=cfg.full_refit_max_cells,
            method_kwargs=method_kwargs,
        )
        shard_index = self.shard_of(campaign_id)
        # The REGISTER body: what the log and every checkpoint store,
        # and what a shard worker's spec is projected from.
        spec = {
            "campaign_id": campaign_id,
            "object_ids": list(object_ids),
            "max_users": max_users,
            "user_ids": None if user_ids is None else list(user_ids),
            "method": method,
            "aggregator": aggregator,
            "cost": (
                None
                if cost is None
                else {"epsilon": cost.epsilon, "delta": cost.delta}
            ),
            "method_kwargs": dict(method_kwargs),
        }
        if self._pool is None:
            campaign_aggregator = make_aggregator(
                max_users,
                len(object_ids),
                kind=aggregator,
                method=method,
                decay=cfg.decay,
                refine_sweeps=cfg.refine_sweeps,
                refine_every=cfg.refine_every,
                full_refit_max_cells=cfg.full_refit_max_cells,
                **method_kwargs,
            )
        else:
            campaign_aggregator = self._deployment.proxy(shard_index, spec)
        state = CampaignState(
            campaign_id,
            object_ids,
            capacity=max_users,
            user_ids=user_ids,
            cost=cost,
            max_batch=cfg.max_batch,
            aggregator=campaign_aggregator,
        )
        state.spec = spec
        if self._durability is not None:
            # Log the registration before claims can reference it.  The
            # spec must round-trip through JSON, so durable campaigns
            # need JSON-representable object ids and method kwargs.
            self._durability.log_register(spec)
        if self._pool is not None:
            # The worker must know the campaign before any batch frame
            # can reference it (frames are processed strictly in order,
            # so sending the registration first is sufficient).
            self._deployment.register(shard_index, spec)
        shard = self._shards[shard_index]
        shard.register(state)
        self._campaign_shard[campaign_id] = shard
        _LOGGER.debug(
            "campaign %s registered on shard %d (%d objects, <=%d users)",
            campaign_id,
            shard.index,
            len(state.object_ids),
            max_users,
        )
        return shard.index

    def unregister_campaign(self, campaign_id: str) -> None:
        """Drain a campaign, then drop its state from its shard.

        The campaign's queued work items and its partial batch first
        reach its aggregator (and the log, when durable), so every
        claim counted in ``claims_accepted`` — and charged to its
        user's budget — is aggregated before the state goes.  Ledger
        charges are not refunded: privacy budget spent on released
        data stays spent.
        """
        shard = self._campaign_shard.get(campaign_id)
        if shard is None:
            raise KeyError(f"campaign {campaign_id!r} not registered")
        shard.flush_campaign(campaign_id)
        del self._campaign_shard[campaign_id]
        del shard.campaigns[campaign_id]
        if self._durability is not None:
            self._durability.log_unregister(campaign_id)
        if self._pool is not None:
            self._deployment.unregister(shard.index, campaign_id)

    def campaign_state(self, campaign_id: str) -> CampaignState:
        """The shard-side state of a campaign: what log replay applies
        records to and a standby's read is served from."""
        shard = self._campaign_shard.get(campaign_id)
        if shard is None:
            raise KeyError(f"campaign {campaign_id!r} not registered")
        return shard.campaigns[campaign_id]

    # ------------------------------------------------------------------
    def submit(self, submission: ClaimSubmission) -> IngestResult:
        """Validate, admit, and queue one protocol submission.

        A submission without claims is a no-op, as an empty chunk is on
        :meth:`submit_columns`: it reserves no queue slot, charges no
        budget and takes no user slot.
        """
        stats = self.stats
        stats.submissions += 1
        campaign_id = submission.campaign_id
        values = submission.values
        n = len(values)
        traces = self._traces
        trace = None if traces is None else traces.maybe_start(campaign_id, n)
        shard = self._campaign_shard.get(campaign_id)
        if shard is None:
            stats.rejected_unknown_campaign += n
            return IngestResult(0, n, "unknown-campaign")
        if n == 0:
            return _ACCEPTED[0]
        state = shard.campaigns[campaign_id]
        object_slots = state.object_slots(submission.object_ids)
        if object_slots is None:
            stats.rejected_unknown_object += n
            self.telemetry.shard_claims_rejected[shard.index] += n
            return IngestResult(0, n, "unknown-object")
        if type(values) is not tuple:
            values = tuple(values)  # the caller's buffer may change
        if not all(map(isfinite, values)):  # non-numeric values raise
            stats.rejected_invalid_value += n
            self.telemetry.shard_claims_rejected[shard.index] += n
            return IngestResult(0, n, "invalid-value")
        # Peek capacity without consuming a slot: rejected traffic must
        # not exhaust the campaign's user table.
        user_id = submission.user_id
        slot = state.user_index.get(user_id)
        if slot is None:
            if len(state.user_table) >= state.capacity:
                stats.rejected_capacity += n
                self.telemetry.shard_claims_rejected[shard.index] += n
                return IngestResult(0, n, "capacity")
            if self._durability is not None:
                # A new user's id goes to the log in a USERS record, so
                # an id no record can carry is refused here, before
                # anything is reserved or charged for it.
                self._durability.check_user_id(user_id)
        # Backpressure fires before the budget charge: a submission the
        # queue refuses must not spend the user's epsilon, and the
        # reservation keeps that true under concurrent producers.
        if not shard.try_reserve():
            stats.rejected_overflow += n
            self.telemetry.shard_claims_rejected[shard.index] += n
            return IngestResult(0, n, "overflow")
        try:
            cost = state.cost
            ledger = self._ledger
            if cost is not None and ledger is not None:
                # Admission and recording its charge for the log form
                # one atomic section under the ledger lock, so a
                # concurrent checkpoint (which snapshots the ledger,
                # logs the recorded charges and reads the log position
                # under the same lock) sees either both or neither — a
                # charge can never fall between a checkpoint's ledger
                # records and its replayed log suffix.  One lock entry:
                # the charge runs as the lock holder's primitive.
                lock = ledger.lock
                lock.acquire()
                try:
                    refused = ledger._charge_locked(
                        user_id, cost, "", campaign_id
                    )
                    if not refused and self._durability is not None:
                        # Recorded at admission, logged in order no
                        # later than the first batch or commit point
                        # after it: before this submission's batch, so
                        # its claims never survive a crash without the
                        # charge; claims lost before their batch became
                        # durable keep the budget spent (safe side).
                        self._durability.log_charge(
                            user_id, cost, label=campaign_id
                        )
                finally:
                    lock.release()
                if refused:
                    shard.cancel_reservation()
                    stats.rejected_budget += n
                    self.telemetry.shard_claims_rejected[shard.index] += n
                    return IngestResult(0, n, "budget")
            if slot is None:
                slot = state.user_slot(user_id)
                if slot < 0:
                    # Concurrent submitters filled the user table
                    # between the capacity peek and the assignment.  The
                    # budget charge (if any) stands — over-charging is
                    # the safe direction — but the claims are refused.
                    shard.cancel_reservation()
                    stats.rejected_capacity += n
                    self.telemetry.shard_claims_rejected[shard.index] += n
                    return IngestResult(0, n, "capacity")
        except BaseException:
            # A charge the log refused at admission (a record could not
            # encode it, or the log is closed or failed): the charge
            # stands (safe side), the queue slot must not.
            shard.cancel_reservation()
            raise
        # A scalar work item, in the slot reserved above: the pump
        # builds the columns.  This is _enqueue's tail, inlined because
        # it runs once per submission here (once per chunk on the bulk
        # path).
        now = time.perf_counter()
        if trace is not None:
            trace.enqueue_ts = now
        shard.enqueue((state, slot, object_slots, values, now, trace))
        stats.claims_accepted += n
        self.telemetry.shard_claims_accepted[shard.index] += n
        return _ACCEPTED[n] if n < len(_ACCEPTED) else IngestResult(n)

    def submit_columns(
        self,
        campaign_id: str,
        user_slots: np.ndarray,
        object_slots: np.ndarray,
        values: np.ndarray,
    ) -> IngestResult:
        """Queue a pre-resolved columnar chunk (the bulk hot path).

        ``user_slots``/``object_slots`` are integer indices into the
        campaign's user-slot table and object universe; whole-chunk
        validation is vectorised and the chunk is accepted or rejected
        atomically.  Budget admission treats every bulk claim as an
        independent release: each distinct user is charged the campaign
        cost composed over their claim count in the chunk, and any user
        without headroom rejects the whole chunk (charging no one).  A
        charged chunk must name its users: a slot with no user id
        (registered ``user_ids=`` or taken by :meth:`submit`) raises
        ``ValueError`` before anything is reserved or charged; a
        cost-free chunk names such slots ``"slot:N"``.

        The three columns are copied on entry and only the copies are
        checked and queued, so the caller may reuse its buffers as soon
        as this returns.  From here on they move by reference: the
        batcher cuts batches out of them without checking them again.
        """
        stats = self.stats
        stats.submissions += 1
        shard = self._campaign_shard.get(campaign_id)
        values = np.array(values, dtype=float)
        n = values.size
        traces = self._traces
        trace = None if traces is None else traces.maybe_start(campaign_id, n)
        if shard is None:
            stats.rejected_unknown_campaign += n
            return IngestResult(0, n, "unknown-campaign")
        shard_rejected = self.telemetry.shard_claims_rejected
        state = shard.campaigns[campaign_id]
        user_slots = np.array(user_slots, dtype=np.int64)
        object_slots = np.array(object_slots, dtype=np.int64)
        if not (user_slots.shape == object_slots.shape == values.shape):
            raise ValueError("user/object/value columns must share a shape")
        if values.ndim != 1:
            # Reject here: a multi-dimensional chunk would only blow up
            # later inside pump(), poisoning the whole shard queue.
            raise ValueError("claim columns must be 1-D arrays")
        if n == 0:
            return _ACCEPTED[0]
        # One reduction per slot column: viewed as uint64, a negative
        # slot reads as at least 2**63, so ``max() >= bound`` catches it.
        if object_slots.view(np.uint64).max() >= len(state.object_ids):
            stats.rejected_unknown_object += n
            shard_rejected[shard.index] += n
            return IngestResult(0, n, "unknown-object")
        top_slot = int(user_slots.view(np.uint64).max())
        if top_slot >= state.capacity:
            stats.rejected_capacity += n
            shard_rejected[shard.index] += n
            return IngestResult(0, n, "capacity")
        if not np.isfinite(values).all():
            stats.rejected_invalid_value += n
            shard_rejected[shard.index] += n
            return IngestResult(0, n, "invalid-value")
        charged = state.cost is not None and self._ledger is not None
        if charged and top_slot >= len(state.user_table):
            raise ValueError(
                f"a costed chunk must name its users: slot {top_slot} of "
                f"{campaign_id!r} has no user id"
            )
        # As in submit(): refuse before charging anyone's budget,
        # atomically against concurrent producers.
        if not shard.try_reserve():
            stats.rejected_overflow += n
            shard_rejected[shard.index] += n
            return IngestResult(0, n, "overflow")
        try:
            if charged:
                refused_user = self._charge_chunk(
                    state, campaign_id, user_slots
                )
                if refused_user is not None:
                    shard.cancel_reservation()
                    stats.rejected_budget += n
                    shard_rejected[shard.index] += n
                    _LOGGER.debug(
                        "chunk for %s rejected: %s out of budget",
                        campaign_id,
                        refused_user,
                    )
                    return IngestResult(0, n, "budget")
            # A cost-free chunk may address unnamed slots; name them
            # so snapshots can name contributors.  The "slot:" namespace
            # cannot collide with protocol user ids that were (or will
            # be) assigned through user_slot() — register explicit
            # user_ids to get real names in snapshots.
            if len(state.user_table) <= top_slot:
                state.ensure_placeholder_slots(top_slot)
        except BaseException:
            # As in submit(): a charge stands, its queue slot does not.
            shard.cancel_reservation()
            raise
        return self._enqueue(
            shard, state, user_slots, object_slots, values, trace=trace
        )

    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Move queued work through batchers into aggregators.

        With durability attached this is also the group-commit point:
        batches logged during the pump are synced (under the ``batch``
        fsync policy) and automatic checkpoints fire here.
        """
        moved = self._pump_shards()
        self._commit()
        return moved

    def flush(self) -> int:
        """Pump everything, then force partial batches and refinements.

        One group commit covers the pump and the tail: the pump's
        charges are logged where its own commit would have put them,
        then the tail batches and refreshes follow, then one sync.
        """
        moved = self._pump_shards()
        if self._durability is not None:
            self._durability.log_pending_charges()
        for shard in self._shards:
            shard.flush()
        self._commit()
        return moved

    def _pump_shards(self) -> int:
        if self._pool is not None:
            # Surface a crashed worker as a clear error now, not as a
            # broken connection halfway through shipping this pump's
            # batches.
            self._pool.check()
        moved = sum(shard.pump() for shard in self._shards)
        self._pumps += 1
        if (
            self._pool is not None
            and self.telemetry.enabled
            and self._pumps % 64 == 0
        ):
            # Refresh the cached worker/host registry snapshots from
            # here — the pump thread owns the frame protocol; the HTTP
            # scrape thread must never issue RPCs of its own.
            self.telemetry.refresh_remote(self._pool)
            self._fold_supervision()
        return moved

    def _commit(self) -> None:
        if self._durability is not None:
            self._durability.after_pump()
            self._sample_wal_stats()

    def _sample_wal_stats(self) -> None:
        """Fold the WAL's commit activity into the telemetry layer:
        drain newly completed group commits into the
        ``repro_wal_commit_seconds`` histogram and resolve traces the
        durable-ack watermark now covers."""
        durability = self._durability
        wal = durability.wal
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.drain_wal(wal, durability.config.fsync)
        if telemetry.traces.enabled:
            telemetry.traces.resolve_durable(wal.durable_lsn)

    def _fold_supervision(self) -> None:
        """Mirror supervisor failover timings into the histogram."""
        if self._pool is not None and self._pool.supervisor is not None:
            self.telemetry.on_failover(self._pool.supervisor)

    def snapshot(self, campaign_id: str) -> TruthSnapshot:
        """Fresh read-side view of one campaign.

        Forces only that campaign's partial batch and refinement;
        co-sharded campaigns are pumped but not refined.  A campaign
        unchanged since its last read returns that snapshot object
        again (``stats.snapshot_reads_unchanged`` counts those reads).
        """
        shard = self._campaign_shard.get(campaign_id)
        if shard is None:
            raise KeyError(f"campaign {campaign_id!r} not registered")
        start = time.perf_counter()
        shard.flush_campaign(campaign_id)
        if self._durability is not None:
            # The read may have forced a tail batch into the log; make
            # it durable before handing out truths derived from it.
            self._durability.sync()
            self._sample_wal_stats()
        state = shard.campaigns[campaign_id]
        last = state.last_snapshot
        snapshot = state.snapshot()
        elapsed = time.perf_counter() - start
        stats = self.stats
        stats.snapshot_reads += 1
        stats.snapshot_read_seconds += elapsed
        if snapshot is last:
            stats.snapshot_reads_unchanged += 1
        self.telemetry.snapshot_read.observe(elapsed)
        return snapshot

    def sync_workers(self) -> None:
        """Barrier: return once workers aggregated every shipped batch
        (a no-op in-process, where pump aggregated synchronously) — so
        multi-process throughput counts finished aggregation, not
        frames parked in a socket."""
        if self._pool is not None:
            self._pool.sync()
            if self.telemetry.enabled:
                self.telemetry.refresh_remote(self._pool)
                self._fold_supervision()

    # ------------------------------------------------------------------
    def rebalance_shard(self, shard_index: int, target_worker: int) -> int:
        """Move one shard's campaigns to another worker/host, online
        (see :meth:`~repro.service.topology.Deployment.rebalance_shard`);
        returns the number of campaigns moved."""
        return self._deployment.rebalance_shard(shard_index, target_worker)

    def fabric_stats(self) -> Optional[dict]:
        """Placement and supervision counters (None without a pool)."""
        return self._deployment.fabric_stats()

    def close(self) -> None:
        """Stop what the topology started, in reverse start order
        (:class:`~repro.service.topology.Deployment`); idempotent, and
        safe after a :class:`~repro.workers.handles.WorkerCrashedError`.

        Queued-but-unpumped work is dropped, exactly like abandoning an
        in-process service.  A durability manager is closed only if the
        topology built it from a config or path: one the caller passed
        in may outlive the service for recovery.
        """
        if self._closed:
            return
        self._closed = True
        if self._durability is not None:
            self._sample_wal_stats()
        self._deployment.close()

    def __enter__(self) -> "IngestService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def queue_depths(self) -> list[int]:
        """Per-shard queued work items (observability)."""
        return [shard.queue_depth for shard in self._shards]

    def metrics_snapshot(self):
        """The full metric view (:class:`~repro.obs.RegistrySnapshot`).

        Safe from any thread: reads only live registry objects, plain
        counters, and the *cached* remote snapshots — never the frame
        protocol.  This is the provider a
        :class:`~repro.obs.MetricsServer` should serve.
        """
        self._fold_supervision()
        return self.telemetry.snapshot(self)

    # ------------------------------------------------------------------
    def _charge_chunk(
        self, state: CampaignState, campaign_id: str, user_slots: np.ndarray
    ):
        """Charge a chunk's users all or none; the refused user, or None.

        Names each distinct slot's user and counts their claims; the
        ledger's :meth:`~BudgetLedger.charge_group` then checks the
        whole group before charging anyone.  Unlike the protocol path
        (one submission = one release under a shared variance draw),
        each bulk claim is an independent release, so a user is charged
        ``cost`` composed over their claim count in the chunk — merging
        submissions into chunks cannot under-charge.
        """
        slots, counts = np.unique(user_slots, return_counts=True)
        user_ids = [state.user_table[s] for s in slots.tolist()]
        epsilon = state.cost.epsilon * counts
        delta = np.minimum(state.cost.delta * counts, 1.0)
        # The charge and its log records form one section under the
        # ledger lock: a concurrent checkpoint sees both or neither.
        # A group the log could not take is refused before anyone is
        # charged, the ledger's own all-or-none rule.
        durability = self._durability
        with self._ledger.lock:
            if durability is not None:
                durability.check_charges(user_ids, campaign_id)
            refused = self._ledger.charge_group(
                user_ids, epsilon, delta, label=campaign_id
            )
            if refused is None and durability is not None:
                durability.log_charges(user_ids, epsilon, delta, campaign_id)
        return refused

    def _enqueue(
        self,
        shard: Shard,
        state: CampaignState,
        users: int | np.ndarray,
        objects: list[int] | np.ndarray,
        values: tuple | np.ndarray,
        *,
        trace=None,
    ) -> IngestResult:
        """Queue an admitted item in the slot its caller reserved."""
        n = len(values)
        now = time.perf_counter()
        if trace is not None:
            trace.enqueue_ts = now
        # The timestamp feeds the queue-wait histogram at pump time; the
        # trace (almost always None) rides along to be stamped through
        # flush/durable/aggregated.
        shard.enqueue((state, users, objects, values, now, trace))
        self.stats.claims_accepted += n
        self.telemetry.shard_claims_accepted[shard.index] += n
        return _ACCEPTED[n] if n < len(_ACCEPTED) else IngestResult(n)
