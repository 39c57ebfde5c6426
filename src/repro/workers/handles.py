"""Parent-side proxies for shard workers.

Two objects hide the process boundary from the service layer:

* :class:`WorkerHandle` — one worker process: its data-plane
  connection, liveness checking, typed frame senders, and blocking
  RPCs.  Every operation on the connection is crash-wrapped: if the
  worker died, the handle drains any pending ``ERROR`` frame (so the
  remote traceback survives) and raises :class:`WorkerCrashedError`
  with the exit code instead of a bare ``BrokenPipeError``.
* :class:`RemoteAggregator` — implements the
  :class:`~repro.service.aggregator.IncrementalAggregator` surface for
  one campaign whose real aggregator lives in a worker.  ``ingest``
  encodes the batch with the write-ahead log's own encoder
  (:func:`~repro.durable.records.batch_encoder`), joins it once — the
  one buffer a supervisor journals and the wire carries — and ships it
  as a ``BATCH`` frame;
  ``folded`` is one snapshot RPC, and the proxy keeps nothing of it;
  ``state_dict``/``load_state`` round-trip the worker
  aggregator's full state, which is how durable checkpoints capture
  remote campaigns.

Because the proxy satisfies the same surface, the existing
:class:`~repro.service.shard.Shard` pump/flush machinery — including
its durability logging, which must happen in the parent where the WAL
lives — runs unchanged; only the aggregation work moves out of
process.

The proxy mirrors the streaming backend's staged-claim bookkeeping
(``refresh_changes_state``) locally.  The mirror is exact because every
event that changes the worker-side staging — batch ingest, explicit
refresh, and the fold a snapshot read forces — flows through this
proxy, and both sides apply the same ``refine_every`` auto-fold rule.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.durable import records as rec
from repro.obs.registry import Histogram, series_key
from repro.service.aggregator import IncrementalAggregator
from repro.truthdiscovery.streaming import ClaimBatch
from repro.utils.process import reap
from repro.workers import protocol as proto


class WorkerError(RuntimeError):
    """A shard worker reported a failure (carries the remote traceback)."""


class WorkerCrashedError(WorkerError):
    """A shard worker process died unexpectedly."""


class WorkerHandle:
    """The parent's view of one shard-worker process."""

    #: Default seconds to wait for an RPC response before declaring the
    #: worker hung (generous: a worker may be draining a deep backlog).
    RPC_TIMEOUT = 120.0

    #: True once a supervisor declared this host gone for good.
    lost = False

    def __init__(
        self,
        worker_id: int,
        shard_range: tuple,
        process,
        conn,
        *,
        rpc_timeout: float = RPC_TIMEOUT,
    ) -> None:
        self.worker_id = worker_id
        self.shard_range = tuple(shard_range)
        self.process = process
        self._conn = conn
        self._rpc_timeout = rpc_timeout
        self._closed = False
        self._crashing = False
        #: RPC observability: round-trip count, accumulated seconds,
        #: and the cumulative latency histogram the telemetry layer
        #: exports as ``repro_fabric_rpc_seconds``.
        self.rpc_count = 0
        self.rpc_seconds = 0.0
        self.rpc_histogram = Histogram(
            series_key(
                "repro_fabric_rpc_seconds", {"proc": f"worker{worker_id}"}
            )
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        lo, hi = self.shard_range
        return (
            f"WorkerHandle(worker {self.worker_id}, shards {lo}..{hi - 1}, "
            f"pid {self.process.pid})"
        )

    @property
    def alive(self) -> bool:
        return not self._closed and self.process.is_alive()

    def check(self) -> None:
        """Cheap liveness probe between pumps.

        Outside an RPC the worker only ever sends ``ERROR`` frames, so
        any pending frame here is a failure report; a dead process with
        a silent connection raises :class:`WorkerCrashedError`
        directly.
        """
        if self._closed:
            raise WorkerCrashedError(f"{self!r} is already shut down")
        if self._conn.poll(0):
            self._drain_error()
        if not self.process.is_alive():
            self._raise_crashed("worker process died")

    # ------------------------------------------------------------------
    def send(self, rtype: int, payload: bytes = b"") -> None:
        """Ship one frame, converting send failures into crash errors."""
        if self._closed:
            raise WorkerCrashedError(f"{self!r} is already shut down")
        try:
            self._conn.send_frame(rtype, payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            self._raise_crashed(f"send failed ({exc})")

    def request(self, rtype: int, payload: bytes, expect: int) -> bytes:
        """Blocking RPC: send one frame, wait for its typed response."""
        start = time.perf_counter()
        self.send(rtype, payload)
        body = self.expect(expect)
        elapsed = time.perf_counter() - start
        self.rpc_count += 1
        self.rpc_seconds += elapsed
        self.rpc_histogram.observe(elapsed)
        return body

    def expect(self, expect: int, timeout: float | None = None) -> bytes:
        """Wait for one frame of type ``expect`` (ERROR frames raise)."""
        timeout = self._rpc_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._raise_crashed(
                    f"no frame of type {expect} within {timeout:.0f}s"
                )
            if not self._conn.poll(min(remaining, 0.2)):
                if not self.process.is_alive():
                    self._raise_crashed("worker process died mid-RPC")
                continue
            try:
                got, body = self._conn.recv_frame()
            except (EOFError, ConnectionResetError, OSError):
                self._raise_crashed("connection closed mid-RPC")
            if got == proto.ERROR:
                raise WorkerError(self._format_error(body))
            if got != expect:
                raise WorkerError(
                    f"{self!r} answered frame type {got}, expected "
                    f"{expect}"
                )
            return body

    # ------------------------------------------------------------------
    # Typed senders (data plane).
    def register(self, spec: dict) -> None:
        self.send(rec.REGISTER, rec.encode_json_payload(spec))

    def unregister(self, campaign_id: str) -> None:
        self.send(
            rec.UNREGISTER,
            rec.encode_json_payload({"campaign_id": campaign_id}),
        )

    def send_batch(self, payload: bytes) -> None:
        """Ship one encoded BATCH payload (see
        :func:`~repro.durable.records.batch_encoder`)."""
        self.send(rec.BATCH, payload)

    def send_refresh(self, campaign_id: str) -> None:
        self.send(
            rec.REFRESH,
            rec.encode_json_payload({"campaign_id": campaign_id}),
        )

    # Typed RPCs.
    def snapshot(self, campaign_id: str) -> dict:
        body = self.request(
            proto.SNAPSHOT_REQ,
            rec.encode_json_payload({"campaign_id": campaign_id}),
            proto.SNAPSHOT_RESP,
        )
        return proto.unpack_state(body)

    def state_dict(self, campaign_id: str) -> dict:
        body = self.request(
            proto.STATE_REQ,
            rec.encode_json_payload({"campaign_id": campaign_id}),
            proto.STATE_RESP,
        )
        return proto.unpack_state(body)["state"]

    def load_state(self, campaign_id: str, state: dict) -> None:
        self.send(
            proto.LOAD_STATE,
            proto.pack_state({"campaign_id": campaign_id, "state": state}),
        )

    def sync(self) -> None:
        """Barrier: returns once every frame sent so far is processed."""
        self.request(proto.SYNC_REQ, b"", proto.SYNC_RESP)

    def metrics(self):
        """Fetch the worker's metric-registry snapshot (STATS RPC).

        Ordered like every other frame, so the snapshot reflects all
        batches shipped before the call.  Must only run on the thread
        that owns the data plane (the service's pump thread).
        """
        from repro.obs.registry import RegistrySnapshot

        body = self.request(proto.STATS_REQ, b"", proto.STATS_RESP)
        return RegistrySnapshot.from_dict(
            json.loads(body.decode("utf-8"))
        )

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Ask the worker to exit; escalate to terminate/kill if it won't."""
        if self._closed:
            return
        try:
            self._conn.send_frame(proto.SHUTDOWN, b"")
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # already dead; just reap it below
        reap(self.process, timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - double close
            pass
        self._closed = True

    # ------------------------------------------------------------------
    def _drain_error(self) -> None:
        try:
            got, body = self._conn.recv_frame()
        except (EOFError, ConnectionResetError, OSError):
            self._raise_crashed("connection closed")
        if got == proto.ERROR:
            raise WorkerError(self._format_error(body))
        raise WorkerError(
            f"{self!r} sent an unsolicited frame of type {got}"
        )

    def _format_error(self, body: bytes) -> str:
        try:
            remote = json.loads(body.decode("utf-8")).get("traceback", "")
        except (UnicodeDecodeError, ValueError):
            remote = body.decode("utf-8", "replace")
        return f"{self!r} failed; remote traceback:\n{remote}"

    def _raise_crashed(self, why: str) -> None:
        exitcode = self.process.exitcode
        # A failing worker tries to report its traceback before dying;
        # surface it if one is queued behind the broken stream.  The
        # drain itself can hit the dead stream (EOF polls as readable
        # forever) — the guard stops that from recursing back here.
        if not self._closed and not self._crashing:
            self._crashing = True
            try:
                if self._conn.poll(0):
                    self._drain_error()
            except (WorkerCrashedError, OSError, EOFError):
                pass
            finally:
                self._crashing = False
        raise WorkerCrashedError(
            f"{self!r}: {why}"
            + (f" (exit code {exitcode})" if exitcode is not None else "")
            + "; its shards cannot make progress — restart the service "
            "(with durability attached, recover from the WAL)"
        )


class RemoteAggregator(IncrementalAggregator):
    """IncrementalAggregator proxy for a campaign living in a worker.

    Parameters
    ----------
    handle:
        The :class:`WorkerHandle` owning the campaign's shard.
    campaign_id:
        Campaign this proxy speaks for.
    backend:
        The resolved backend kind in the worker (``"streaming"`` /
        ``"full"``), from
        :func:`~repro.service.aggregator.resolve_backend` — needed to
        mirror ``refresh_changes_state`` without an RPC.
    refine_every:
        The streaming backend's auto-fold threshold (mirrored locally).
    """

    def __init__(
        self,
        handle: WorkerHandle,
        campaign_id: str,
        num_users: int,
        num_objects: int,
        *,
        backend: str,
        refine_every: int,
    ) -> None:
        super().__init__(num_users, num_objects)
        self._handle = handle
        self._campaign_id = campaign_id
        self._backend = backend
        self._refine_every = refine_every
        self._staged = 0
        self._encode = rec.batch_encoder(campaign_id, num_users, num_objects)

    # ------------------------------------------------------------------
    @property
    def handle(self) -> WorkerHandle:
        return self._handle

    @property
    def backend(self) -> str:
        return self._backend

    def rehome(self, handle: WorkerHandle) -> None:
        """Point the proxy at a new owning handle (online rebalancing).

        The campaign's aggregator state has already moved (register +
        ``load_state`` on the new worker, ordered after every shipped
        frame), staged-claim bookkeeping included — so the local mirror
        carries over unchanged.  The version moves so that the next
        read is answered by the new owner.
        """
        self._handle = handle
        self.version += 1

    def ingest(self, batch: ClaimBatch) -> None:
        self._handle.send_batch(
            b"".join(self._encode(batch.users, batch.objects, batch.values))
        )
        self.claims_ingested += batch.size
        self.batches_ingested += 1
        self.version += 1
        if self._backend == "streaming":
            # Mirror StreamingAggregator.ingest: once refine_every
            # claims accumulate the worker folds them on its own.
            self._staged += batch.size
            if self._staged >= self._refine_every:
                self._staged = 0

    @property
    def refresh_changes_state(self) -> bool:
        return self._backend == "streaming" and self._staged > 0

    def refresh(self) -> None:
        if self.refresh_changes_state:
            self._handle.send_refresh(self._campaign_id)
            self._staged = 0
            self.version += 1

    # ------------------------------------------------------------------
    def folded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One snapshot RPC.  The worker folds what it has staged before
        answering, so this is the folded state only with nothing staged:
        after :meth:`refresh`, as every read does first."""
        state = self._handle.snapshot(self._campaign_id)
        self._staged = 0  # keep the mirror in step with that fold
        return (
            state["truths"],
            state["weights"],
            np.asarray(state["seen_objects"], dtype=bool),
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        # state_dict captures staged work without folding it, so the
        # local mirror is untouched — checkpointing cannot perturb the
        # stream, exactly like the in-process backends.
        return self._handle.state_dict(self._campaign_id)

    def load_state(self, state: dict) -> None:
        kind = state.get("kind")
        if kind != self._backend:
            raise ValueError(
                f"state is for a {kind!r} backend, but campaign "
                f"{self._campaign_id!r} runs {self._backend!r} remotely"
            )
        self._handle.load_state(self._campaign_id, state)
        self.claims_ingested = int(state["claims_ingested"])
        self.batches_ingested = int(state["batches_ingested"])
        if self._backend == "streaming":
            self._staged = int(
                np.asarray(state["staged_users"]).size
            )
        else:
            self._staged = 0
        self.version += 1
