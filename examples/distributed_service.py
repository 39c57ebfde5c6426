"""Multi-node shard fabric: the ingestion service over real sockets.

``Topology.fabric(n)`` moves shard aggregation into ``repro serve-shard``
subprocesses over TCP (``Topology.workers(n)`` is the same fabric
without supervision): each shard host is an independently deployable
process that could live on another machine.  The demo shows:

1. the same service API — register, submit, pump, snapshot — with 2
   socket shard hosts behind 4 shards, launched through the real CLI
   entrypoint;
2. truths that are *bitwise identical* to a single-process run over the
   same traffic (aggregation state is a pure function of the batch
   sequence, wherever — and over whatever transport — it runs);
3. supervised failover: SIGKILL a shard host mid-stream and the
   supervisor respawns it, replays its journal from the last
   checkpoint, and the final truths are still bit-for-bit identical;
4. online rebalancing: re-home a live shard from one host to another
   mid-stream without dropping a claim.

Run:  PYTHONPATH=src python examples/distributed_service.py
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.net.supervisor import CAPTURE_EXPANSION
from repro.service import (
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

NUM_CAMPAIGNS = 3
CLAIMS_PER_CAMPAIGN = 4_000


def build_traffic():
    generators = []
    per_campaign = []
    for c in range(NUM_CAMPAIGNS):
        gen = LoadGenerator(
            f"district-{c}",
            num_users=60,
            num_objects=24,
            noise_std=0.3,
            random_state=2020 + c,
        )
        generators.append(gen)
        per_campaign.append(
            list(gen.column_chunks(CLAIMS_PER_CAMPAIGN, chunk_size=512))
        )
    chunks = [c for group in zip(*per_campaign) for c in group]
    return generators, chunks


def run(generators, chunks, *, hosts: int, midstream=None) -> dict:
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=1024),
        topology=Topology.fabric(hosts) if hosts else Topology.in_process(),
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
            if i % 8 == 7:
                service.pump()
            if midstream is not None and i == len(chunks) // 2:
                midstream(service)
                midstream = None
        service.flush()
        service.sync_workers()
        elapsed = time.perf_counter() - start
        snapshots = {
            gen.campaign_id: service.snapshot(gen.campaign_id)
            for gen in generators
        }
        stats = service.fabric_stats()
    label = f"{hosts} socket host(s)" if hosts else "in-process"
    total = sum(s.claims_ingested for s in snapshots.values())
    print(
        f"  {label:<17} {total:,} claims in {elapsed * 1e3:7.1f} ms "
        f"({total / elapsed:,.0f} claims/s)"
    )
    return snapshots, stats


def assert_bitwise(generators, expected, got, what):
    for gen in generators:
        a = expected[gen.campaign_id].truths
        b = got[gen.campaign_id].truths
        assert np.array_equal(a, b), f"{gen.campaign_id} diverged!"
    print(f"  truths identical bit-for-bit ({what})")


def main() -> None:
    generators, chunks = build_traffic()

    print("== same traffic, in-process vs over TCP shard hosts ==")
    single, _ = run(generators, chunks, hosts=0)
    fabric, stats = run(generators, chunks, hosts=2)
    placement = ", ".join(
        f"host {e['host']}: shards [{e['lo']}, {e['hi']})"
        for e in stats["placement"]
    )
    print(f"  placement: {placement}")
    assert_bitwise(generators, single, fabric, "sockets vs in-process")

    print("\n== kill a shard host mid-stream; the supervisor heals it ==")

    def crash(service):
        victim = service.worker_pool.handles[0]
        print(f"  SIGKILL shard host pid {victim.process.pid}")
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(10.0)

    healed, stats = run(generators, chunks, hosts=2, midstream=crash)
    supervision = stats["supervision"]
    print(
        f"  supervisor: {supervision['restarts']} restart(s), "
        f"recovered in {supervision['last_failover_seconds']:.2f} s\n"
        f"              {supervision['captures']} capture(s): "
        f"{supervision['capture_bytes_total']:,} B of state captured "
        f"({supervision['captured_bytes']:,} B in force) for "
        f"{supervision['journaled_bytes_total']:,} B journaled"
    )
    # Captures cost at most a quarter of the stream they insure, apart
    # from those still in force and any a failover replaced early (the
    # victim had none: this stream never reaches the claim floor).
    replaced = supervision["capture_bytes_total"] - supervision["captured_bytes"]
    assert CAPTURE_EXPANSION * replaced <= supervision["journaled_bytes_total"]
    assert_bitwise(generators, single, healed, "after failover + replay")

    print("\n== re-home a live shard between hosts mid-stream ==")

    def rebalance(service):
        shard = service.shard_of(generators[0].campaign_id)
        source = service.worker_pool.placement.owner_of(shard)
        target = 1 - source
        moved = service.rebalance_shard(shard, target)
        print(
            f"  moved shard {shard} (host {source} -> {target}), "
            f"{moved} campaign(s) shipped live"
        )

    moved, _ = run(generators, chunks, hosts=2, midstream=rebalance)
    assert_bitwise(generators, single, moved, "after online rebalancing")

    print("\ndone: one service API, from one process to a shard fabric.")


if __name__ == "__main__":
    main()
