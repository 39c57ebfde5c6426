"""Multi-process shard workers for the ingestion service (PR 3).

The single-process service tops out at what one Python interpreter can
pump; this package moves the aggregation half of each shard's pump loop
into worker processes while the ingest process keeps validation,
admission, user-slot tables, bounded queues, micro-batching, and
durability logging:

* :mod:`repro.workers.protocol` — length-prefixed frames over a duplex
  pipe, reusing :class:`~repro.durable.records.WorkItem` and the WAL's
  JSON control records as the cross-process format;
* :mod:`repro.workers.worker` — the spawn-safe worker loop: per-campaign
  :class:`~repro.service.aggregator.IncrementalAggregator` instances fed
  strictly in frame order;
* :mod:`repro.workers.pool` — :class:`ShardPool`: process lifecycle
  and contiguous shard-range placement over a launcher
  (:func:`pipe_launcher` here; the socket fabric's
  :class:`~repro.net.fabric.SocketLauncher` drives the same pool);
* :mod:`repro.workers.handles` — :class:`WorkerHandle` (pipe + crash
  detection + RPCs) and :class:`RemoteAggregator`, the
  ``IncrementalAggregator`` proxy that lets the existing
  :class:`~repro.service.shard.Shard` machinery, durability logging,
  and checkpointing run unchanged against remote campaigns.

Entry point: ``IngestService(config, topology=Topology.workers(n))``
— see :class:`repro.service.ingest.IngestService`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ProtocolError": "repro.workers.protocol",
    "RemoteAggregator": "repro.workers.handles",
    "ShardPool": "repro.workers.pool",
    "WorkerCrashedError": "repro.workers.handles",
    "WorkerError": "repro.workers.handles",
    "WorkerHandle": "repro.workers.handles",
    "decode_frame": "repro.workers.protocol",
    "encode_frame": "repro.workers.protocol",
    "pack_state": "repro.workers.protocol",
    "pipe_launcher": "repro.workers.pool",
    "recv_frame": "repro.workers.protocol",
    "send_frame": "repro.workers.protocol",
    "shard_ranges": "repro.workers.pool",
    "unpack_state": "repro.workers.protocol",
    "worker_main": "repro.workers.worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
