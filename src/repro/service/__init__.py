"""High-throughput claim-ingestion service (serving-layer subsystem).

The paper's protocol assumes a cloud server absorbing perturbed claims
from large crowds; this package is that server's serving layer, built
for rate rather than for protocol fidelity (which lives in
``repro.crowdsensing``, whose ``AggregationServer`` runs every campaign
on an :class:`IngestService`):

* :class:`IngestService` — the front door: validation, privacy-budget
  admission (:class:`BudgetLedger`), campaign sharding
  (:func:`shard_for`), bounded shard queues that refuse a submission
  when full, before any budget is charged;
* :class:`MicroBatcher` — columnar micro-batches: accepted claims live
  in NumPy index/value arrays, never per-claim Python objects;
* :class:`StreamingAggregator` / :class:`FullRefitAggregator` —
  incremental truth discovery per campaign: streaming CRH/GTM/CATD
  sufficient statistics for campaigns at scale (O(S x N) reads), a
  full-refit fallback for tiny campaigns and unstreamable methods;
* :class:`TruthSnapshot` — immutable read-side truth/weight views,
  queryable at any time mid-stream;
* :class:`LoadGenerator` — seeded synthetic traffic; the throughput
  and latency benchmark that drives it lives outside the package
  (``python3 benchmarks/e2e/run.py``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdmissionDecision": "repro.service.ledger",
    "BudgetLedger": "repro.service.ledger",
    "CampaignState": "repro.service.shard",
    "ColumnChunk": "repro.service.loadgen",
    "FullRefitAggregator": "repro.service.aggregator",
    "IncrementalAggregator": "repro.service.aggregator",
    "IngestResult": "repro.service.ingest",
    "IngestService": "repro.service.ingest",
    "LoadGenerator": "repro.service.loadgen",
    "MicroBatcher": "repro.service.batcher",
    "ServiceConfig": "repro.service.ingest",
    "ServiceStats": "repro.service.ingest",
    "Shard": "repro.service.shard",
    "StreamingAggregator": "repro.service.aggregator",
    "Topology": "repro.service.topology",
    "TruthSnapshot": "repro.service.snapshot",
    "make_aggregator": "repro.service.aggregator",
    "resolve_backend": "repro.service.aggregator",
    "shard_for": "repro.service.shard",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
