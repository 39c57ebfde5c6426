"""repro.obs — the unified telemetry layer.

A typed metric registry (counters, gauges, mergeable log-scale latency
histograms), sampled per-submission tracing, and exposition (Prometheus
text over HTTP, plus the ``repro metrics`` / ``repro top`` terminal
views).  Every pipeline layer — service, durable, workers, net —
reports into it; see ``docs/observability.md`` for the metric-name
reference.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BUCKET_BASE": "repro.obs.registry",
    "BUCKET_EDGES": "repro.obs.registry",
    "NUM_BUCKETS": "repro.obs.registry",
    "NULL_REGISTRY": "repro.obs.registry",
    "STAGES": "repro.obs.tracing",
    "SUMMARY_QUANTILES": "repro.obs.registry",
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricFamily": "repro.obs.registry",
    "MetricRegistry": "repro.obs.registry",
    "MetricsServer": "repro.obs.exposition",
    "NullRegistry": "repro.obs.registry",
    "RegistrySnapshot": "repro.obs.registry",
    "SubmissionTrace": "repro.obs.tracing",
    "TraceCollector": "repro.obs.tracing",
    "bucket_index": "repro.obs.registry",
    "format_metrics": "repro.obs.top",
    "percentile_from_counts": "repro.obs.registry",
    "render_dashboard": "repro.obs.top",
    "render_prometheus": "repro.obs.exposition",
    "run_top": "repro.obs.top",
    "scrape": "repro.obs.exposition",
    "series_key": "repro.obs.registry",
    "series_name": "repro.obs.registry",
    "try_scrape": "repro.obs.exposition",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
