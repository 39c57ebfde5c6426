"""What the benchmark declares, and how its layers map onto the program.

``BENCHMARK.json`` at the repository root is the one place where the
command, the workloads and every metric (name, unit, direction, bound)
are written down; this module reads it.  What the file's schema has no
room for lives here: the span sites (which class attribute each per-layer
timing wraps) and :data:`MOVES`, the interaction table.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


@functools.lru_cache(maxsize=None)
def declared() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_seconds() -> int:
    """``--seconds`` the driver passes; every workload sizes its timed
    window to about this long on the reference 2-core box."""
    return declared()["run_seconds"]


def workload_names() -> list[str]:
    return [w["name"] for w in declared()["workloads"]]


def end_to_end() -> list[dict]:
    """Gated metrics: every workload reports each of them, never zero."""
    return declared()["end_to_end"]


def per_layer() -> list[dict]:
    """Every metric a ``--trace 1`` run reports: ``<site>.calls`` and
    ``<site>.self_s`` per span site, the counts, and the end-to-end
    metrics that are not gated (they exist on some workloads only, or
    are 0 when all is well)."""
    return declared()["per_layer"]


def layer_counts() -> list[dict]:
    """The per-layer metrics that are not span-site timings."""
    timings = {f"{site}.{kind}" for site in span_site_names() for kind in ("calls", "self_s")}
    return [spec for spec in per_layer() if spec["name"] not in timings]


#: Span sites: (site, module, class, attribute).  The tracer wraps the
#: class attribute; each site reports ``<site>.calls`` and
#: ``<site>.self_s``.  A site listed twice covers an override.
SPAN_SITES = [
    ("service.ingest.submit", "repro.service.ingest", "IngestService", "submit"),
    ("service.ingest.submit_columns", "repro.service.ingest", "IngestService", "submit_columns"),
    ("service.ingest.pump", "repro.service.ingest", "IngestService", "pump"),
    ("service.ingest.flush", "repro.service.ingest", "IngestService", "flush"),
    ("service.ingest.snapshot", "repro.service.ingest", "IngestService", "snapshot"),
    ("service.ledger.admit", "repro.service.ledger", "BudgetLedger", "admit"),
    ("service.shard.object_slots", "repro.service.shard", "CampaignState", "object_slots"),
    ("service.shard.user_slot", "repro.service.shard", "CampaignState", "user_slot"),
    ("service.shard.try_reserve", "repro.service.shard", "Shard", "try_reserve"),
    ("service.shard.enqueue", "repro.service.shard", "Shard", "enqueue"),
    ("service.shard.pump", "repro.service.shard", "Shard", "pump"),
    ("service.shard.flush_campaign", "repro.service.shard", "Shard", "flush_campaign"),
    ("service.shard.campaign_snapshot", "repro.service.shard", "CampaignState", "snapshot"),
    ("service.batcher.add_columns", "repro.service.batcher", "MicroBatcher", "add_columns"),
    ("service.batcher.flush", "repro.service.batcher", "MicroBatcher", "flush"),
    ("service.aggregator.ingest", "repro.service.aggregator", "StreamingAggregator", "ingest"),
    ("service.aggregator.refresh", "repro.service.aggregator", "StreamingAggregator", "refresh"),
    ("service.aggregator.ingest", "repro.service.aggregator", "FullRefitAggregator", "ingest"),
    ("service.aggregator.refresh", "repro.service.aggregator", "FullRefitAggregator", "refresh"),
    ("truthdiscovery.streaming.crh.ingest", "repro.truthdiscovery.streaming", "StreamingCRH", "ingest"),
    ("truthdiscovery.streaming.gtm.ingest", "repro.truthdiscovery.streaming", "StreamingGTM", "ingest"),
    ("truthdiscovery.streaming.catd.ingest", "repro.truthdiscovery.streaming", "StreamingCATD", "ingest"),
    ("truthdiscovery.batch.fit", "repro.truthdiscovery.base", "TruthDiscoveryMethod", "fit"),
    ("truthdiscovery.batch.fit", "repro.truthdiscovery.gtm", "GTM", "fit"),
    ("privacy.mechanisms.perturb", "repro.privacy.mechanisms", "ExponentialVarianceGaussianMechanism", "perturb"),
    ("durable.manager.log_batch", "repro.durable.manager", "DurabilityManager", "log_batch"),
    ("durable.manager.log_charge", "repro.durable.manager", "DurabilityManager", "log_charge"),
    ("durable.manager.log_refresh", "repro.durable.manager", "DurabilityManager", "log_refresh"),
    ("durable.manager.after_pump", "repro.durable.manager", "DurabilityManager", "after_pump"),
    ("durable.manager.sync", "repro.durable.manager", "DurabilityManager", "sync"),
    ("durable.manager.checkpoint", "repro.durable.manager", "DurabilityManager", "checkpoint"),
    ("durable.wal.append", "repro.durable.wal", "WriteAheadLog", "append"),
    ("durable.wal.sync", "repro.durable.wal", "WriteAheadLog", "sync"),
    ("durable.checkpoint.save", "repro.durable.checkpoint", "CheckpointStore", "save"),
    ("durable.recovery.recover", "repro.durable.recovery", "RecoveryManager", "recover"),
    ("workers.handles.send_batch", "repro.workers.handles", "WorkerHandle", "send_batch"),
    ("workers.handles.send_refresh", "repro.workers.handles", "WorkerHandle", "send_refresh"),
    ("workers.handles.snapshot", "repro.workers.handles", "WorkerHandle", "snapshot"),
    ("net.supervisor.send", "repro.net.supervisor", "SupervisedHandle", "send"),
    ("net.supervisor.request", "repro.net.supervisor", "SupervisedHandle", "request"),
    ("net.supervisor.failover", "repro.net.supervisor", "Supervisor", "failover"),
    ("net.supervisor.checkpoint", "repro.net.supervisor", "Supervisor", "checkpoint"),
    ("net.transport.send_bytes", "repro.net.transport", "SocketConnection", "send_bytes"),
    ("net.transport.recv_frame", "repro.net.transport", "SocketConnection", "recv_frame"),
    ("replication.sender.after_group_commit", "repro.replication.sender", "ReplicationSender", "after_group_commit"),
    ("replication.sender.wait_replicated", "repro.replication.sender", "ReplicationSender", "wait_replicated"),
    ("replication.client.snapshot", "repro.replication.client", "ReplicaReadClient", "snapshot"),
]

#: The journal has no public frame counter; a calls-only wrapper
#: counts ``HostJournal.record`` during the traced run.
JOURNAL_SITE = ("net.supervisor.journal_frames", "repro.net.supervisor", "HostJournal", "record")

#: Which end-to-end metric each layer metric should move, on which
#: workload, and a workload where the prediction is no change.
#: Confirmed against the traced tables; see the README.
MOVES = [
    {
        "layer": [
            "service.ingest.submit", "service.shard.object_slots", "service.ledger.admit",
            "service.shard.try_reserve", "service.shard.enqueue",
        ],
        "moves": [
            {"metric": "ingest_claims_per_s", "workload": "device_submit"},
            {"metric": "cpu_us_per_claim", "workload": "device_submit"},
            {"metric": "ack_p50_ms", "workload": "device_paced_durable"},
        ],
        "no_change_on": ["bulk_durable", "fabric_rpc"],
    },
    {
        "layer": [
            "service.aggregator.refresh", "truthdiscovery.streaming.crh.ingest",
            "truthdiscovery.streaming.gtm.ingest", "truthdiscovery.streaming.catd.ingest",
        ],
        "moves": [
            {"metric": "read_p50_ms", "workload": "read_mix"},
            {"metric": "read_p99_ms", "workload": "read_mix"},
            {"metric": "ingest_claims_per_s", "workload": "read_mix"},
            {"metric": "ack_p50_ms", "workload": "device_paced_durable"},
            {"metric": "ack_p99_ms", "workload": "device_paced_durable"},
            {"metric": "ingest_claims_per_s", "workload": "device_submit"},
        ],
        "no_change_on": ["fabric_rpc"],
    },
    {
        "layer": ["service.shard.campaign_snapshot"],
        "moves": [{"metric": "clean_read_p50_ms", "workload": "read_mix"}],
        "no_change_on": ["bulk_durable"],
    },
    {
        "layer": [
            "durable.wal.append", "durable.wal.sync", "durable.manager.log_batch",
            "durable.manager.after_pump", "durable.wal.bytes",
        ],
        "moves": [
            {"metric": "ingest_claims_per_s", "workload": "bulk_durable"},
            {"metric": "cpu_us_per_claim", "workload": "bulk_durable"},
            {"metric": "wal_bytes_per_claim", "workload": "bulk_durable"},
            {"metric": "ingest_claims_per_s", "workload": "replicated_bulk"},
        ],
        "no_change_on": ["device_submit", "read_mix", "fabric_rpc"],
    },
    {
        "layer": ["durable.manager.log_charge", "durable.manager.sync"],
        "moves": [
            {"metric": "ack_p50_ms", "workload": "device_paced_durable"},
            {"metric": "ack_p99_ms", "workload": "device_paced_durable"},
            {"metric": "wal_bytes_per_claim", "workload": "device_paced_durable"},
        ],
        "no_change_on": ["device_submit", "bulk_durable"],
    },
    {
        "layer": ["durable.recovery.recover", "durable.checkpoint.save", "durable.manager.checkpoint"],
        "moves": [{"metric": "recover_s", "workload": "bulk_durable"}],
        "no_change_on": ["device_submit", "read_mix", "fabric_rpc"],
    },
    {
        "layer": [
            "net.transport.send_bytes", "net.transport.recv_frame", "net.supervisor.send",
            "net.supervisor.request", "net.supervisor.checkpoint", "workers.handles.send_batch",
            "workers.handles.send_refresh", "workers.handles.snapshot", "net.frames_sent", "net.bytes_sent",
        ],
        "moves": [
            {"metric": "ingest_claims_per_s", "workload": "fabric_rpc"},
            {"metric": "cpu_us_per_claim", "workload": "fabric_rpc"},
            {"metric": "read_p50_ms", "workload": "fabric_rpc"},
        ],
        "no_change_on": ["device_submit", "bulk_durable", "read_mix", "device_paced_durable"],
    },
    {
        "layer": ["net.supervisor.failover"],
        "moves": [{"metric": "failover_s", "workload": "fabric_rpc"}],
        "no_change_on": ["device_submit", "bulk_durable", "read_mix", "device_paced_durable"],
    },
    {
        "layer": [
            "replication.sender.after_group_commit", "replication.sender.wait_replicated",
            "replication.client.snapshot", "replication.records_shipped", "replication.bytes_shipped",
            "replication.groups_shipped",
        ],
        "moves": [
            {"metric": "ingest_claims_per_s", "workload": "replicated_bulk"},
            {"metric": "read_p50_ms", "workload": "replicated_bulk"},
        ],
        "no_change_on": ["bulk_durable"],
    },
]


def span_site_names() -> list[str]:
    """Distinct site names, in declaration order."""
    return list(dict.fromkeys(site[0] for site in SPAN_SITES))
