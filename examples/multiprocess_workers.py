"""Multi-process shard workers: the ingestion service beyond one core.

The single-process service aggregates on the thread that pumps; with
``Topology.workers(n)`` each shard's aggregation moves into a worker
process (a ``repro serve-shard`` child on a loopback port) that
receives micro-batches as compact ``WorkItem`` frames.  The demo shows:

1. the same service API — register, submit, pump, snapshot — with a
   2-worker pool behind 4 shards;
2. truths that are *bitwise identical* to a single-process run over the
   same traffic (aggregation state is a pure function of the batch
   sequence, wherever it runs);
3. worker-crash behaviour: killing a worker surfaces a clear
   ``WorkerCrashedError`` instead of a hung connection.

Run:  PYTHONPATH=src python examples/multiprocess_workers.py
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.service import (
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)
from repro.workers import WorkerCrashedError

NUM_CAMPAIGNS = 4
CLAIMS_PER_CAMPAIGN = 30_000


def build_traffic():
    generators = []
    per_campaign = []
    for c in range(NUM_CAMPAIGNS):
        gen = LoadGenerator(
            f"city-block-{c}",
            num_users=120,
            num_objects=40,
            noise_std=0.3,
            random_state=2020 + c,
        )
        generators.append(gen)
        per_campaign.append(
            list(gen.column_chunks(CLAIMS_PER_CAMPAIGN, chunk_size=1024))
        )
    # Interleave arrivals across campaigns, like real mixed traffic.
    chunks = [c for group in zip(*per_campaign) for c in group]
    return generators, chunks


def run(generators, chunks, *, workers: int) -> dict:
    topology = Topology.workers(workers) if workers else Topology.in_process()
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=2048), topology=topology
    )
    with service:
        for gen in generators:
            service.register_campaign(
                gen.campaign_id,
                gen.object_ids,
                max_users=gen.num_users,
                user_ids=gen.user_ids,
            )
        start = time.perf_counter()
        for i, chunk in enumerate(chunks):
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            if i % 16 == 15:
                service.pump()
        service.flush()
        service.sync_workers()
        elapsed = time.perf_counter() - start
        snapshots = {
            gen.campaign_id: service.snapshot(gen.campaign_id)
            for gen in generators
        }
    label = f"{workers} worker(s)" if workers else "in-process"
    total = sum(s.claims_ingested for s in snapshots.values())
    print(
        f"  {label:<12} {total:,} claims in {elapsed * 1e3:7.1f} ms "
        f"({total / elapsed:,.0f} claims/s)"
    )
    return snapshots


def main() -> None:
    generators, chunks = build_traffic()

    print("== same traffic, with and without shard workers ==")
    single = run(generators, chunks, workers=0)
    multi = run(generators, chunks, workers=2)

    print("\n== truths agree bitwise ==")
    for gen in generators:
        a = single[gen.campaign_id].truths
        b = multi[gen.campaign_id].truths
        assert np.array_equal(a, b), f"{gen.campaign_id} diverged!"
        err = float(np.abs(a - gen.truths).mean())
        print(
            f"  {gen.campaign_id}: truths identical across modes "
            f"(mean |error| vs ground truth {err:.3f})"
        )

    print("\n== a killed worker fails loudly, not silently ==")
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=2048),
        topology=Topology.workers(2),
    )
    with service:
        gen = generators[0]
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=gen.num_users,
            user_ids=gen.user_ids,
        )
        victim = service.worker_pool.handle_for(
            service.shard_of(gen.campaign_id)
        )
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)
        try:
            for chunk in chunks[:64]:
                if chunk.campaign_id != gen.campaign_id:
                    continue
                service.submit_columns(
                    chunk.campaign_id,
                    chunk.user_slots,
                    chunk.object_slots,
                    chunk.values,
                )
            service.pump()
            raise SystemExit("expected a WorkerCrashedError")
        except WorkerCrashedError as exc:
            first_line = str(exc).splitlines()[0]
            print(f"  caught: {first_line}")

    print("\ndone: shard aggregation runs out-of-process, bit-for-bit.")


if __name__ == "__main__":
    main()
