"""High-throughput ingestion: the service layer end to end.

A city-scale air-quality campaign: hundreds of users stream perturbed
claims into the sharded ingestion service.  The demo shows the pieces
working together:

1. a privacy-budget ledger admission-controls every submission — users
   who exhaust their (epsilon, delta) budget are turned away;
2. claims land in columnar micro-batches and are aggregated
   incrementally, so fresh truths are queryable mid-stream;
3. the bulk columnar path sustains far more claims per second than
   per-submission ``submit()`` (compare ``ingest_claims_per_s`` of
   ``python3 benchmarks/e2e/run.py --workload bulk_durable`` and
   ``--workload device_submit``).

Run:  PYTHONPATH=src python examples/high_throughput_service.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import percentile_from_counts
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
)


def main() -> None:
    rng_seed = 2020

    # -- a protocol-shaped campaign under budget admission --------------
    gen = LoadGenerator(
        "air-quality",
        num_users=300,
        num_objects=48,
        claims_per_submission=6,
        noise_std=0.3,
        lambda2=2.0,  # Algorithm-2 perturbation on every claim
        random_state=rng_seed,
    )
    accountant = PrivacyAccountant()
    ledger = BudgetLedger(epsilon_cap=2.0, accountant=accountant)
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=512), ledger=ledger
    )
    per_submission_cost = LDPGuarantee(epsilon=0.25, delta=0.01)
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=gen.num_users,
        user_ids=gen.user_ids,
        cost=per_submission_cost,
    )

    submissions = gen.submissions(4000)
    for sub in submissions:
        service.submit(sub)
    service.flush()

    stats = service.stats
    print(
        f"submitted {len(submissions)} submissions: "
        f"{stats.claims_accepted} claims admitted, "
        f"{stats.rejected_budget} claims rejected over budget"
    )
    print(
        f"ledger: {ledger.admitted} admissions, {ledger.denied} denials, "
        f"worst-case composed guarantee {ledger.worst_case()}"
    )

    snap = service.snapshot(gen.campaign_id)
    rmse = float(np.sqrt(np.mean((snap.truths - gen.truths) ** 2)))
    print(snap.summary())
    print(f"truth RMSE vs ground truth (perturbed stream): {rmse:.3f}")

    # -- the bulk columnar hot path --------------------------------------
    bulk_gen = LoadGenerator(
        "bulk-telemetry",
        num_users=500,
        num_objects=64,
        noise_std=0.2,
        random_state=rng_seed + 1,
    )
    bulk_service = IngestService(ServiceConfig(num_shards=4, max_batch=2048))
    bulk_service.register_campaign(
        bulk_gen.campaign_id,
        bulk_gen.object_ids,
        max_users=bulk_gen.num_users,
        user_ids=bulk_gen.user_ids,
    )
    chunks = list(bulk_gen.column_chunks(100_000, chunk_size=2048))

    start = time.perf_counter()
    for chunk in chunks:
        bulk_service.submit_columns(
            chunk.campaign_id, chunk.user_slots, chunk.object_slots,
            chunk.values,
        )
    bulk_service.flush()
    elapsed = time.perf_counter() - start

    accepted = bulk_service.stats.claims_accepted
    print(
        f"bulk path: {accepted:,} claims in {elapsed:.3f}s "
        f"({accepted / elapsed:,.0f} claims/s across "
        f"{bulk_service.num_shards} shards)"
    )
    # The per-shard micro-batch flush histograms, merged.
    flush_counts = np.sum(
        [
            hist["counts"]
            for (name, _labels), hist
            in bulk_service.metrics_snapshot().histograms.items()
            if name == "repro_batch_flush_seconds"
        ],
        axis=0,
    )
    p50, p99 = (percentile_from_counts(flush_counts, q) for q in (50, 99))
    print(
        f"micro-batch latency: p50 {p50 * 1e3:.3f} ms, "
        f"p99 {p99 * 1e3:.3f} ms"
    )


if __name__ == "__main__":
    main()
