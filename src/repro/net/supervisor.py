"""Supervised shard hosts: journal, checkpoint, restart, replay.

An unsupervised worker dying is fatal by design — the parent raises
:class:`~repro.workers.handles.WorkerCrashedError` and the operator
recovers from the WAL.  A supervised fabric does better: shard hosts are
remote processes that die for reasons that have nothing to do with the
data (OOM killers, node reboots, deploys), and the service should ride
through.

The mechanism is deterministic replay, built on two facts the worker
tier already guarantees:

* a shard host's aggregator state is a pure function of the ordered
  frame sequence it processed (that is what makes multi-process truths
  bitwise-identical to single-process truths);
* ``state_dict`` captures staged-but-unfolded work exactly, and
  ``LOAD_STATE`` restores it, bit for bit.

So the parent keeps, per host, a :class:`HostJournal`: the last
*capture* (every campaign's ``STATE_RESP`` body, taken through the
normal RPC path and kept as the bytes the host sent — it is already a
``LOAD_STATE`` payload, so the parent never decodes it) plus every
state-changing frame sent since.  When a host
dies, :meth:`Supervisor.failover` spawns a replacement, replays
capture + journal in order, and the service continues as if nothing
happened — recovered truths are bitwise-identical to an uncrashed run,
and no caller ever sees the crash.

One subtlety: answering a snapshot RPC *folds* staged claims remotely
(reads force a refresh), and fold timing is part of the bitwise
contract.  Snapshot requests are therefore journaled as ``REFRESH``
markers — replaying the marker reproduces the fold at the same point
in the stream, and a marker hitting an empty staging buffer is a
no-op, so over-marking cannot perturb state.

Captures cost a quarter of the stream.  A capture moves every
campaign's full state back over the socket, so a host is re-captured
only once its journal has grown to :data:`CAPTURE_EXPANSION` (4) times
the size of the capture it would replace (``bytes_since_capture >=
CAPTURE_EXPANSION * captured_bytes`` — both are sizes the journal
already holds), and after every failover or re-home.  It is Raft's
log-compaction rule with Ongaro's worked factor (thesis, 2014, ch. 5),
and it gives three bounds, whatever the state size:

* capture traffic is at most a quarter of the journaled stream, plus
  the captures still in force and those a failover or re-home replaced
  early (both capture unconditionally): a capture is replaced by the
  cadence only after four times its bytes have been journaled;
* the parent holds at most capture + journal <= 5 x state per host
  (6 x while a sweep is in flight, the new blobs beside the old);
* a crash replays at most 4 states' worth of frames.

Each bound is up to the frames of one pump (the rule is checked after
every pump) and the claim floor: ``checkpoint_every_claims`` stays
under the byte rule, because when states are tiny the byte rule would
fire every few frames, and the claim spacing is what amortises a
sweep's fixed round-trip cost (it alone decides a host's first
capture, when there is nothing to replace).  A larger factor trades
replay length and parent memory for fewer sweeps; at 1 the sweeps cost
as much as the stream (``fabric_rpc``: 102 captures a run against 29).

Hosts can also disappear *for good* — the machine is gone, not the
process.  Respawn attempts are bounded by the shared jittered
:class:`~repro.utils.backoff.Backoff` (one seeded stream per host), and
when they exhaust, :meth:`Supervisor.rehome` declares the host lost and
replays its journal — capture plus frame suffix, per campaign, in
order — into the *surviving* hosts instead.  Placement moves and proxy
re-points happen only after the replay barrier, so no claim is dropped
and truths stay bitwise-equal to an uncrashed run; the service keeps
ingesting, degraded, with fewer hosts.
"""

from __future__ import annotations

import json
import struct
import time
from typing import Callable, Optional

from repro.chaos import points as _chaos
from repro.durable import records as rec
from repro.utils.backoff import Backoff
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.workers import protocol as proto
from repro.workers.handles import WorkerCrashedError, WorkerHandle

_LOGGER = get_logger("net.supervisor")

#: Frame types that change shard-host state and therefore must replay.
JOURNALLED_TYPES = frozenset(
    {rec.REGISTER, rec.UNREGISTER, rec.BATCH, rec.REFRESH, proto.LOAD_STATE}
)

#: A host is re-captured once its journal holds this many times the
#: bytes of the capture it would replace (module docstring).
CAPTURE_EXPANSION = 4

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _batch_claims(payload: bytes) -> int:
    """Claim count of a BATCH frame (header peek; no column decode)."""
    try:
        (cid_len,) = _U16.unpack_from(payload, 0)
        (n,) = _U32.unpack_from(payload, _U16.size + cid_len + 1)
    except struct.error:
        return 0  # malformed; the worker will raise, not us
    return n


def _frame_campaign(rtype: int, payload: bytes) -> str:
    """The campaign a journaled frame belongs to (re-home routing).

    BATCH frames prefix the campaign id (u16 length + bytes); REGISTER/
    UNREGISTER/REFRESH are JSON; LOAD_STATE is a packed state whose
    manifest carries ``campaign_id`` (its arrays stay untouched).
    """
    if rtype == rec.BATCH:
        (cid_len,) = _U16.unpack_from(payload, 0)
        return payload[_U16.size:_U16.size + cid_len].decode("utf-8")
    if rtype == proto.LOAD_STATE:
        return proto.state_campaign(payload)
    return json.loads(payload.decode("utf-8"))["campaign_id"]


class HostJournal:
    """Everything needed to rebuild one shard host deterministically."""

    def __init__(self) -> None:
        #: Current registrations: campaign_id -> REGISTER spec.
        self.specs: dict[str, dict] = {}
        #: Last capture: campaign_id -> (spec, LOAD_STATE payload).
        self.captured: dict[str, tuple[dict, bytes]] = {}
        #: State-changing frames sent since the last capture, in order.
        self.frames: list[tuple[int, bytes]] = []
        self.claims_since_capture = 0
        #: Payload bytes held in ``frames`` (replay work, parent memory).
        self.bytes_since_capture = 0
        #: Blob bytes held in ``captured``: what the next capture costs.
        self.captured_bytes = 0
        self.captures = 0
        #: Lifetime totals: capture traffic against the stream it insures.
        self.capture_bytes_total = 0
        self.journaled_bytes_total = 0

    def record(self, rtype: int, payload: bytes) -> None:
        """Note one state-changing frame about to go on the wire."""
        if rtype == rec.REGISTER:
            spec = json.loads(payload.decode("utf-8"))
            self.specs[spec["campaign_id"]] = spec
        elif rtype == rec.UNREGISTER:
            cid = json.loads(payload.decode("utf-8"))["campaign_id"]
            self.specs.pop(cid, None)
        elif rtype == rec.BATCH:
            self.claims_since_capture += _batch_claims(payload)
        self.frames.append((rtype, bytes(payload)))
        self.bytes_since_capture += len(payload)
        self.journaled_bytes_total += len(payload)

    def capture(self, states: dict[str, bytes]) -> None:
        """Adopt fresh per-campaign state blobs; the journal restarts
        empty."""
        self.captured = {
            cid: (dict(self.specs[cid]), state)
            for cid, state in states.items()
        }
        self.frames.clear()
        self.claims_since_capture = 0
        self.bytes_since_capture = 0
        self.captured_bytes = sum(len(blob) for blob in states.values())
        self.captures += 1
        self.capture_bytes_total += self.captured_bytes


class Supervisor:
    """Watches a :class:`~repro.workers.pool.ShardPool`'s hosts.

    The pool's handles route every state-changing frame through their
    journal (see :class:`SupervisedHandle`); the supervisor decides
    when to capture and performs failover when a host dies.  While
    :attr:`active` is False (during failover, and after close) the
    handles behave exactly like unsupervised ones, so replay traffic is
    never re-journaled and a crash mid-failover surfaces instead of
    recursing.
    """

    def __init__(
        self,
        pool,
        *,
        checkpoint_every_claims: int = 50_000,
        respawn_attempts: int = 4,
        respawn_seed: int = 0,
    ) -> None:
        if checkpoint_every_claims < 1:
            raise ValueError(
                f"checkpoint_every_claims must be >= 1, got "
                f"{checkpoint_every_claims}"
            )
        if respawn_attempts < 1:
            raise ValueError(
                f"respawn_attempts must be >= 1, got {respawn_attempts}"
            )
        self._pool = pool
        self.checkpoint_every_claims = checkpoint_every_claims
        self.respawn_attempts = respawn_attempts
        self._respawn_seed = respawn_seed
        self._respawn_backoff: dict[int, Backoff] = {}
        self.active = True
        self.restarts = 0
        self.respawn_retries = 0
        self.failover_seconds: list[float] = []
        self.last_failover_seconds: Optional[float] = None
        #: Hosts declared gone for good (their shards were re-homed).
        self.lost_hosts: set[int] = set()
        self.rehomes = 0
        self.rehome_seconds: list[float] = []
        self.last_rehome_seconds: Optional[float] = None
        #: Service hook, called as ``on_rehome(campaign_id, handle)``
        #: after a lost host's campaign landed on a survivor — the
        #: :class:`~repro.workers.handles.RemoteAggregator` proxies live
        #: above this layer and must re-point there.
        self.on_rehome: Optional[Callable[[str, WorkerHandle], None]] = None

    # ------------------------------------------------------------------
    def maybe_checkpoint(self) -> None:
        """Capture any host whose journal outgrew its last capture.

        Due means the journal holds at least :data:`CAPTURE_EXPANSION`
        times the bytes of the capture it would replace, and at least
        the claim floor (see the module docstring for what the pair
        bounds).
        """
        if not self.active:
            return
        for handle in self._pool.handles:
            if handle.lost:
                continue
            journal = handle.journal
            if (
                journal.claims_since_capture >= self.checkpoint_every_claims
                and journal.bytes_since_capture
                >= CAPTURE_EXPANSION * journal.captured_bytes
            ):
                self.checkpoint(handle)

    def checkpoint(self, handle: "SupervisedHandle") -> None:
        """Capture one host's campaigns through the normal RPC path.

        ``state_dict`` does not fold staged work (checkpointing cannot
        perturb the stream), and the RPC is ordered after every frame
        already sent, so the capture is exact without any barrier.  The
        response bodies are journaled undecoded.
        """
        journal = handle.journal
        epoch = journal.captures
        states = {}
        for cid in sorted(journal.specs):
            states[cid] = handle.request(
                proto.STATE_REQ,
                rec.encode_json_payload({"campaign_id": cid}),
                proto.STATE_RESP,
            )
            if journal.captures != epoch or handle.lost:
                # The host died under that request: the failover that
                # answered it already captured the replacement (or
                # re-homed the campaigns and captured the survivors).
                return
        journal.capture(states)
        _LOGGER.debug(
            "captured host %d (%d campaign(s))",
            handle.worker_id,
            len(states),
        )

    # ------------------------------------------------------------------
    def failover(self, handle: "SupervisedHandle") -> None:
        """Replace a dead host and replay it back to the stream head.

        When the replacement cannot be spawned within the bounded
        backoff budget, the host is declared gone for good and its
        shards are re-homed onto the survivors instead
        (:meth:`rehome`) — degraded, but no claim is dropped.
        """
        start = time.perf_counter()
        self.active = False
        respawned = False
        try:
            _LOGGER.warning(
                "shard host %d died (exit code %s); restarting",
                handle.worker_id,
                handle.process.exitcode,
            )
            respawned = self._respawn_bounded(handle)
            if respawned:
                handle.send(rec.CONFIG, self._pool.config_frame)
                handle.expect(
                    proto.READY, timeout=self._pool.ready_timeout
                )
                journal = handle.journal
                for spec, blob in journal.captured.values():
                    handle.send(
                        rec.REGISTER, rec.encode_json_payload(spec)
                    )
                    handle.send(proto.LOAD_STATE, blob)
                for rtype, payload in journal.frames:
                    handle.send(rtype, payload)
                # Barrier: the replacement is only "recovered" once it
                # has processed the whole replay (and proved it can
                # answer).
                handle.sync()
            else:
                self.rehome(handle)
        finally:
            self.active = True
        if not respawned:
            return
        # Start the next epoch from the recovered state so a second
        # crash replays from here, not from before the first one.
        self.checkpoint(handle)
        elapsed = time.perf_counter() - start
        self.restarts += 1
        self.failover_seconds.append(elapsed)
        self.last_failover_seconds = elapsed
        _LOGGER.warning(
            "shard host %d recovered in %.3fs (replayed %d campaign "
            "capture(s))",
            handle.worker_id,
            elapsed,
            len(handle.journal.captured),
        )

    def _respawn_bounded(self, handle: "SupervisedHandle") -> bool:
        """Respawn with jittered-backoff retries; False when exhausted.

        A flapping spawn path (or an injected ``proc.spawn`` fault)
        neither hard-fails the service on the first refusal nor loops
        hot: each host retries on its own seeded backoff stream.
        """
        backoff = self._respawn_backoff.get(handle.worker_id)
        if backoff is None:
            backoff = Backoff(
                base=0.05,
                cap=2.0,
                random_state=derive_seed(
                    self._respawn_seed,
                    "supervisor.respawn",
                    handle.worker_id,
                ),
            )
            self._respawn_backoff[handle.worker_id] = backoff
        backoff.reset()
        for attempt in range(self.respawn_attempts):
            try:
                self._pool.respawn(handle)
            except (OSError, RuntimeError, TimeoutError) as exc:
                self.respawn_retries += 1
                remaining = self.respawn_attempts - attempt - 1
                _LOGGER.warning(
                    "respawn of shard host %d failed (%s); "
                    "%d attempt(s) left",
                    handle.worker_id,
                    exc,
                    remaining,
                )
                if remaining == 0:
                    return False
                time.sleep(backoff.next())
            else:
                return True
        return False  # pragma: no cover - loop always returns

    # ------------------------------------------------------------------
    def rehome(self, dead: "SupervisedHandle") -> None:
        """Declare ``dead`` gone for good; re-home its shards.

        State is sourced from the dead host's *journal* (the host
        cannot be asked): the last capture plus the frame suffix replay
        into the survivors, per campaign, in original order — the same
        determinism argument as in-place failover, just with a new
        address.  The placement table and the aggregator proxies are
        updated only after the replay barrier, so the switch is atomic
        from the data plane's point of view.
        """
        from repro.service.shard import shard_for

        start = time.perf_counter()
        placement = self._pool.placement
        survivors = [
            h
            for h in self._pool.handles
            if h is not dead and not h.lost
        ]
        if not survivors:
            raise WorkerCrashedError(
                f"shard host {dead.worker_id} is gone for good and no "
                f"surviving hosts remain"
            )
        dead.retire()
        self.lost_hosts.add(dead.worker_id)
        journal = dead.journal
        # Deterministic reassignment: the dead host's shards go
        # round-robin over the survivors in handle order.
        shards = placement.shards_of(dead.worker_id)
        new_owner = {
            shard: survivors[i % len(survivors)]
            for i, shard in enumerate(shards)
        }

        def target_of(cid: str) -> WorkerHandle:
            owner = new_owner.get(shard_for(cid, placement.num_shards))
            return owner if owner is not None else survivors[0]

        # Replay capture first, then the suffix, preserving per-frame
        # order; interleaving across campaigns is irrelevant because
        # shard-host state is per-campaign independent.
        for cid in sorted(journal.captured):
            spec, blob = journal.captured[cid]
            target = target_of(cid)
            target.send(rec.REGISTER, rec.encode_json_payload(spec))
            target.send(proto.LOAD_STATE, blob)
        for rtype, payload in journal.frames:
            target_of(_frame_campaign(rtype, payload)).send(rtype, payload)
        affected = sorted(
            {target_of(cid).worker_id for cid in journal.specs}
            | {h.worker_id for h in new_owner.values()}
        )
        by_id = {h.worker_id: h for h in survivors}
        for worker_id in affected:
            by_id[worker_id].sync()
        # The survivors now own the campaigns: absorb them into their
        # journals and capture, so a *survivor* crash replays them too.
        for cid, spec in journal.specs.items():
            target_of(cid).journal.specs[cid] = dict(spec)
            dead.rehome_targets[cid] = target_of(cid)
        for worker_id in affected:
            self.checkpoint(by_id[worker_id])
        # Atomic switch: placement, then proxies.
        for shard, owner in sorted(new_owner.items()):
            placement.move(shard, owner.worker_id)
        if self.on_rehome is not None:
            for cid in sorted(journal.specs):
                self.on_rehome(cid, target_of(cid))
        elapsed = time.perf_counter() - start
        self.rehomes += 1
        self.rehome_seconds.append(elapsed)
        self.last_rehome_seconds = elapsed
        _LOGGER.warning(
            "shard host %d lost for good: re-homed %d shard(s) / %d "
            "campaign(s) onto %d survivor(s) in %.3fs (placement epoch "
            "%d)",
            dead.worker_id,
            len(shards),
            len(journal.specs),
            len({h.worker_id for h in new_owner.values()}),
            elapsed,
            placement.epoch,
        )

    def stats(self) -> dict:
        """JSON-friendly counters (bench / observability).

        ``journal_bytes`` and ``captured_bytes`` are what the parent
        holds right now for its live hosts (a crash replays the first
        on top of the second); the ``*_total`` pair is lifetime capture
        traffic against the journaled stream it insured.
        """
        journals = [h.journal for h in self._pool.handles]
        live = [h.journal for h in self._pool.handles if not h.lost]
        return {
            "restarts": self.restarts,
            "respawn_retries": self.respawn_retries,
            "last_failover_seconds": self.last_failover_seconds,
            "failover_seconds": list(self.failover_seconds),
            "checkpoint_every_claims": self.checkpoint_every_claims,
            "captures": sum(j.captures for j in journals),
            "capture_bytes_total": sum(
                j.capture_bytes_total for j in journals
            ),
            "journaled_bytes_total": sum(
                j.journaled_bytes_total for j in journals
            ),
            "journal_bytes": sum(j.bytes_since_capture for j in live),
            "captured_bytes": sum(j.captured_bytes for j in live),
            "hosts_lost": sorted(self.lost_hosts),
            "rehomes": self.rehomes,
            "last_rehome_seconds": self.last_rehome_seconds,
            "rehome_seconds": list(self.rehome_seconds),
            "placement_epoch": self._pool.placement.epoch,
        }


class SupervisedHandle(WorkerHandle):
    """A :class:`WorkerHandle` that journals and self-heals.

    Every state-changing frame is recorded in the host's journal
    *before* it goes on the wire (a frame the dead host never processed
    must still replay).  Crash errors from the data plane trigger
    :meth:`Supervisor.failover` instead of propagating; RPCs retry once
    against the replacement host.  Everything else — including
    ``shutdown``, which writes to the socket directly — is inherited.
    """

    def __init__(self, *args, supervisor: Supervisor, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._supervisor = supervisor
        self.journal = HostJournal()
        #: campaign_id -> surviving handle, filled in by ``rehome``;
        #: an RPC caught mid-flight by the loss re-routes through this.
        self.rehome_targets: dict[str, WorkerHandle] = {}

    # ------------------------------------------------------------------
    def retire(self) -> None:
        """Mark the host lost for good and release its connection."""
        self.lost = True
        self._closed = True
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    # ------------------------------------------------------------------
    def reset(self, process, conn) -> None:
        """Adopt a replacement host (supervisor hook, post-respawn).

        The handle object keeps its identity, so every
        :class:`~repro.workers.handles.RemoteAggregator` proxy pointing
        here stays valid across the restart.
        """
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self.process = process
        self._conn = conn
        self._closed = False
        self._crashing = False

    # ------------------------------------------------------------------
    def send(self, rtype: int, payload: bytes = b"") -> None:
        if self.lost:
            raise WorkerCrashedError(
                f"shard host {self.worker_id} is gone for good; its "
                f"shards were re-homed"
            )
        if self._closed or not self._supervisor.active:
            return super().send(rtype, payload)
        journalled = rtype in JOURNALLED_TYPES
        if journalled:
            self.journal.record(rtype, payload)
        try:
            super().send(rtype, payload)
        except WorkerCrashedError:
            self._supervisor.failover(self)
            if self.lost:
                if journalled:
                    # The frame was journaled before the wire, so the
                    # re-home replay already delivered it to a survivor.
                    return
                raise WorkerCrashedError(
                    f"shard host {self.worker_id} is gone for good; "
                    f"route through the placement map"
                )
            if not journalled:
                # A control frame (RPC request) is not part of the
                # replay; deliver it to the replacement directly.
                super().send(rtype, payload)

    def request(self, rtype: int, payload: bytes, expect: int) -> bytes:
        if self._closed or not self._supervisor.active:
            return super().request(rtype, payload, expect)
        stall = _chaos.fire("proc.stall")
        if stall is not None:
            # Injected slow host: the RPC completes, late — exercising
            # every timeout the caller stacked on top of this path.
            time.sleep(stall.seconds)
        kill = _chaos.fire("proc.kill")
        if kill is not None and self.process is not None:
            # Injected host death right before an RPC: the request
            # below sees the crash and the supervisor must fail over.
            _LOGGER.warning(
                "chaos: SIGKILL shard host %d (#%d)",
                self.worker_id,
                kill.index,
            )
            self.process.kill()
            self.process.join(5.0)
        if rtype == proto.SNAPSHOT_REQ:
            # Answering a snapshot folds staged claims remotely; mark
            # the fold so replay reproduces its timing (a marker onto
            # empty staging is a no-op, so this can never over-fold).
            self.journal.record(
                rec.REFRESH,
                rec.encode_json_payload(
                    {
                        "campaign_id": json.loads(
                            payload.decode("utf-8")
                        )["campaign_id"]
                    }
                ),
            )
        try:
            return super().request(rtype, payload, expect)
        except WorkerCrashedError:
            if not self.lost:
                # (Lost already: the request's own send hit the corpse,
                # failed over and re-homed before raising.)
                self._supervisor.failover(self)
            if self.lost:
                return self._reroute_request(rtype, payload, expect)
            return super().request(rtype, payload, expect)

    def _reroute_request(
        self, rtype: int, payload: bytes, expect: int
    ) -> bytes:
        """Answer an RPC caught mid-flight by a permanent host loss.

        Campaign-scoped reads re-route to the survivor that adopted the
        campaign (the re-home replay already reproduced the fold
        marker, so a snapshot off the survivor is the bitwise answer).
        """
        if rtype in (proto.SNAPSHOT_REQ, proto.STATE_REQ):
            cid = json.loads(payload.decode("utf-8"))["campaign_id"]
            target = self.rehome_targets.get(cid)
            if target is not None:
                return target.request(rtype, payload, expect)
        raise WorkerCrashedError(
            f"shard host {self.worker_id} is gone for good; re-issue "
            f"the request through the placement map"
        )

    def check(self) -> None:
        if self.lost:
            return
        if self._closed or not self._supervisor.active:
            return super().check()
        try:
            super().check()
        except WorkerCrashedError:
            self._supervisor.failover(self)
