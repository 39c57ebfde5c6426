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

from repro.service.aggregator import (
    FullRefitAggregator,
    IncrementalAggregator,
    StreamingAggregator,
    make_aggregator,
    resolve_backend,
)
from repro.service.batcher import MicroBatcher
from repro.service.ingest import (
    IngestResult,
    IngestService,
    ServiceConfig,
    ServiceStats,
)
from repro.service.ledger import AdmissionDecision, BudgetLedger
from repro.service.loadgen import ColumnChunk, LoadGenerator
from repro.service.shard import CampaignState, Shard, shard_for
from repro.service.snapshot import TruthSnapshot
from repro.service.topology import Topology

__all__ = [
    "AdmissionDecision",
    "BudgetLedger",
    "CampaignState",
    "ColumnChunk",
    "FullRefitAggregator",
    "IncrementalAggregator",
    "IngestResult",
    "IngestService",
    "LoadGenerator",
    "MicroBatcher",
    "ServiceConfig",
    "ServiceStats",
    "Shard",
    "StreamingAggregator",
    "Topology",
    "TruthSnapshot",
    "make_aggregator",
    "resolve_backend",
    "shard_for",
]
