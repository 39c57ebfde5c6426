"""The shard-worker runtime: aggregation off the ingest process's back.

:class:`ShardRuntime` is the transport-free core: given one decoded
frame and a ``send`` callback it applies the frame to its campaign
aggregators and emits any response frames.  One transport drives it:
:class:`repro.net.host.ShardHost` (``repro serve-shard``), one host
process per port, which is what ``Topology.workers(n)`` and
``Topology.fabric(n)`` both start.

A runtime owns a contiguous range of shards: every campaign routed to
those shards lives here as an
:class:`~repro.service.aggregator.IncrementalAggregator` built by the
exact same :func:`~repro.service.aggregator.make_aggregator` call the
in-process service would have made, so given the same micro-batch and
refresh sequence its truths are bit-for-bit identical to a
single-process run.

The parent keeps everything else — validation, admission, user-slot
tables, bounded queues, micro-batching, durability logging — and ships
each completed micro-batch as a ``BATCH`` frame whose payload is the
write-ahead log's record of it (one encoder,
:func:`~repro.durable.records.batch_encoder`); the runtime decodes it
with the one decoder recovery and a standby use too
(:func:`~repro.durable.records.decode_batch`).  Frames are processed
strictly in order, which is what makes the
snapshot/state RPCs consistent: by the time a request is answered, every
batch sent before it has been aggregated.

Protocol (see :mod:`repro.workers.protocol`):

* first frame must be ``CONFIG`` (the service configuration); the
  worker answers ``READY`` — the startup handshake;
* ``REGISTER`` / ``UNREGISTER`` — campaign lifecycle (the same JSON
  payloads the write-ahead log stores);
* ``BATCH`` — one micro-batch, aggregated immediately;
* ``REFRESH`` — fold deferred work for one campaign (read-forced
  refreshes keep their single-process timing);
* ``SNAPSHOT_REQ`` / ``STATE_REQ`` / ``LOAD_STATE`` — read and restore
  aggregator state;
* ``SYNC_REQ`` — barrier; ``PING`` — liveness probe;
  ``SHUTDOWN`` — clean exit.

Any exception is reported back as an ``ERROR`` frame carrying the full
traceback before the process exits nonzero, so the parent can raise a
useful error instead of a bare ``BrokenPipeError``
(:meth:`ShardRuntime.serve_frame`, the one place that contract lives).
"""

from __future__ import annotations

import json
import time
import traceback

from repro.durable import records as rec
from repro.obs.registry import NULL_REGISTRY, MetricRegistry
from repro.workers import protocol as proto


class ShardRuntime:
    """Transport-free frame dispatcher of one shard worker/host.

    ``on_frame`` returns False exactly once — for ``SHUTDOWN`` — after
    which the transport should stop its loop and exit.

    Every runtime carries its own :class:`~repro.obs.MetricRegistry`
    (activated by the ``obs`` flag in the CONFIG frame): aggregation
    latency and throughput counters accumulate worker-side and cross
    back to the parent as a mergeable snapshot over the STATS RPC, so
    one scrape of the parent sees the whole fabric.
    """

    def __init__(self, worker_id: int, shard_range: tuple = (0, 0)) -> None:
        self.worker_id = worker_id
        self.shard_range = tuple(shard_range)
        self._config: dict | None = None
        self._aggregators: dict = {}
        self.claims_aggregated = 0
        #: What the process should exit with: 1 once a frame failed.
        self.exit_code = 0
        self.registry = NULL_REGISTRY
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        registry = self.registry
        self._batches_total = registry.counter(
            "repro_worker_batches_total",
            "micro-batches aggregated on this worker",
        )
        self._claims_total = registry.counter(
            "repro_worker_claims_total",
            "claims aggregated on this worker",
        )
        self._aggregate_hist = registry.histogram(
            "repro_worker_aggregate_seconds",
            "worker-side per-batch aggregation latency",
        )
        self._snapshots_total = registry.counter(
            "repro_worker_snapshots_total",
            "snapshot RPCs answered by this worker",
        )
        self._refreshes_total = registry.counter(
            "repro_worker_refreshes_total",
            "refresh frames applied by this worker",
        )

    # ------------------------------------------------------------------
    def on_frame(self, rtype: int, payload: bytes, send) -> bool:
        """Apply one frame; ``send(rtype, payload)`` emits responses."""
        if rtype == proto.SHUTDOWN:
            return False
        if rtype == proto.PING:
            send(proto.PONG, payload)
            return True
        if self._config is None:
            if rtype != rec.CONFIG:
                raise proto.ProtocolError(
                    f"worker {self.worker_id} expected a CONFIG frame "
                    f"first, got type {rtype}"
                )
            self._config = json.loads(payload.decode("utf-8"))
            if self._config.get("obs", True):
                self.registry = MetricRegistry()
                self._bind_metrics()
            send(proto.READY, b"")
            return True
        self._dispatch(rtype, payload, send)
        return True

    def serve_frame(self, conn, rtype: int, payload: bytes) -> bool:
        """:meth:`on_frame` replying on ``conn``, plus the failure
        contract of a shard host: a frame whose dispatch raises is
        reported as an ``ERROR`` frame carrying the traceback,
        :attr:`exit_code` becomes 1 and False stops the transport.  If
        the parent is already gone the send raises, and the traceback
        reaches stderr instead."""
        send = conn.send_frame
        try:
            return self.on_frame(rtype, payload, send)
        except Exception:
            self.exit_code = 1
            send(
                proto.ERROR,
                rec.encode_json_payload(
                    {
                        "worker_id": self.worker_id,
                        "traceback": traceback.format_exc(),
                    }
                ),
            )
            return False

    # ------------------------------------------------------------------
    def _dispatch(self, rtype: int, payload: bytes, send) -> None:
        if rtype == rec.BATCH:
            self._on_batch(*rec.decode_batch(payload))
        elif rtype == rec.REFRESH:
            self._aggregator(self._json(payload)["campaign_id"]).refresh()
            self._refreshes_total.inc()
        elif rtype == rec.REGISTER:
            self._on_register(self._json(payload))
        elif rtype == rec.UNREGISTER:
            self._aggregators.pop(self._json(payload)["campaign_id"], None)
        elif rtype == proto.SNAPSHOT_REQ:
            self._on_snapshot(self._json(payload)["campaign_id"], send)
        elif rtype == proto.STATE_REQ:
            self._on_state(self._json(payload)["campaign_id"], send)
        elif rtype == proto.LOAD_STATE:
            body = proto.unpack_state(payload)
            self._aggregator(body["campaign_id"]).load_state(body["state"])
        elif rtype == proto.SYNC_REQ:
            send(proto.SYNC_RESP, payload)
        elif rtype == proto.STATS_REQ:
            body = json.dumps(self.registry.snapshot().to_dict())
            send(proto.STATS_RESP, body.encode("utf-8"))
        else:
            raise proto.ProtocolError(
                f"worker {self.worker_id} received unknown frame type "
                f"{rtype}"
            )

    def _json(self, payload: bytes) -> dict:
        return json.loads(payload.decode("utf-8"))

    def _aggregator(self, campaign_id: str):
        try:
            return self._aggregators[campaign_id]
        except KeyError:
            raise proto.ProtocolError(
                f"worker {self.worker_id} has no campaign "
                f"{campaign_id!r} (shards {self.shard_range})"
            ) from None

    # ------------------------------------------------------------------
    def _on_register(self, spec: dict) -> None:
        from repro.service.aggregator import make_aggregator

        campaign_id = spec["campaign_id"]
        if campaign_id in self._aggregators:
            raise proto.ProtocolError(
                f"campaign {campaign_id!r} already registered on "
                f"worker {self.worker_id}"
            )
        cfg = self._config
        self._aggregators[campaign_id] = make_aggregator(
            int(spec["num_users"]),
            int(spec["num_objects"]),
            kind=spec.get("aggregator", "auto"),
            method=spec.get("method", "crh"),
            decay=float(cfg.get("decay", 1.0)),
            refine_sweeps=int(cfg.get("refine_sweeps", 2)),
            refine_every=int(cfg.get("refine_every", 8192)),
            full_refit_max_cells=int(cfg.get("full_refit_max_cells", 4096)),
            **(spec.get("method_kwargs") or {}),
        )

    def _on_batch(self, campaign_id: str, batch) -> None:
        aggregator = self._aggregator(campaign_id)
        start = time.perf_counter()
        # The decoder hands over owned, writable int64/f64 columns,
        # exactly like the single-process path does.
        aggregator.ingest(batch)
        self.claims_aggregated += batch.size
        self._aggregate_hist.observe(time.perf_counter() - start)
        self._batches_total.inc()
        self._claims_total.inc(batch.size)

    def _on_snapshot(self, campaign_id: str, send) -> None:
        aggregator = self._aggregator(campaign_id)
        aggregator.refresh()
        truths, weights, seen = aggregator.folded()
        payload = proto.pack_state(
            {
                "campaign_id": campaign_id,
                "truths": truths,
                "weights": weights,
                "seen_objects": seen,
                "claims_ingested": aggregator.claims_ingested,
                "batches_ingested": aggregator.batches_ingested,
            }
        )
        send(proto.SNAPSHOT_RESP, payload)
        self._snapshots_total.inc()

    def _on_state(self, campaign_id: str, send) -> None:
        aggregator = self._aggregator(campaign_id)
        payload = proto.pack_state(
            {
                "campaign_id": campaign_id,
                "state": aggregator.state_dict(),
            }
        )
        send(proto.STATE_RESP, payload)

