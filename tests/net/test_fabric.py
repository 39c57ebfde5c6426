"""End-to-end tests for the socket shard fabric.

The acceptance bar from ISSUE-6: the full pipeline over real sockets
produces truths bit-for-bit identical to the single-process path, a
shard can be re-homed between live hosts mid-stream without perturbing
a single bit, and teardown is idempotent and crash-safe.

Every fabric here is 2 shard-host subprocesses launched through the
real ``repro serve-shard`` CLI entrypoint (cold interpreter + NumPy
import each), so the streams are kept deliberately small.
"""

import os
import signal

import numpy as np
import pytest

from repro.service import (
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)


def make_service(hosts, *, num_shards=4, **overrides):
    defaults = dict(num_shards=num_shards, max_batch=256)
    defaults.update(overrides)
    return IngestService(
        ServiceConfig(**defaults), topology=Topology.fabric(hosts)
    )


def stream_campaigns(service, *, num_campaigns=3, claims=3000, seed=23,
                     midstream=None, **register_kwargs):
    """Stream identical bulk traffic; optionally call ``midstream`` at
    the halfway pump.  Returns campaign_id -> snapshot."""
    generators = []
    per_campaign = []
    for c in range(num_campaigns):
        gen = LoadGenerator(
            f"net-c{c}", num_users=30, num_objects=16, random_state=seed + c
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=30,
            user_ids=gen.user_ids,
            **register_kwargs,
        )
        generators.append(gen)
        per_campaign.append(
            list(
                gen.column_chunks(
                    max(claims // num_campaigns, 1), chunk_size=250
                )
            )
        )
    chunks = [c for group in zip(*per_campaign) for c in group]
    for i, chunk in enumerate(chunks):
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        if i % 3 == 2:
            service.pump()
        if midstream is not None and i == len(chunks) // 2:
            midstream(service)
            midstream = None
    service.flush()
    return {
        gen.campaign_id: service.snapshot(gen.campaign_id)
        for gen in generators
    }


def assert_snapshots_bitwise_equal(expected, got):
    for cid, snap in expected.items():
        other = got[cid]
        assert np.array_equal(snap.truths, other.truths)
        assert np.array_equal(snap.seen_objects, other.seen_objects)
        assert snap.weights_by_user == other.weights_by_user
        assert snap.claims_ingested == other.claims_ingested
        assert snap.batches_ingested == other.batches_ingested


@pytest.fixture(scope="module")
def single_process_snapshots():
    with IngestService(ServiceConfig(num_shards=4, max_batch=256)) as single:
        return stream_campaigns(single)


class TestBitwiseOverSockets:
    def test_two_hosts_match_single_process(self, single_process_snapshots):
        with make_service(2) as service:
            got = stream_campaigns(service)
            assert service.num_workers == 2
        assert_snapshots_bitwise_equal(single_process_snapshots, got)

    def test_rebalance_midstream_is_invisible(self, single_process_snapshots):
        """Re-home a live shard between hosts halfway through the
        stream: truths must stay bit-for-bit identical, and routing
        must follow the placement."""
        moves = {}

        def rebalance(service):
            placement = service.worker_pool.placement
            # Pick a shard that actually owns campaigns, so the move
            # ships state (an empty shard would be pure routing).
            shard_index = next(
                s
                for s in range(service.num_shards)
                for cid in service.campaign_ids
                if service.shard_of(cid) == s
            )
            source = placement.owner_of(shard_index)
            target = 1 - source
            moves["count"] = service.rebalance_shard(shard_index, target)
            moves["shard"] = shard_index
            moves["target"] = target

        with make_service(2) as service:
            got = stream_campaigns(service, midstream=rebalance)
            placement = service.worker_pool.placement
            assert placement.owner_of(moves["shard"]) == moves["target"]
            stats = service.fabric_stats()
        assert moves["count"] >= 1
        assert stats["workers"] == 2
        assert_snapshots_bitwise_equal(single_process_snapshots, got)

    def test_rebalance_to_current_owner_is_a_noop(self):
        with make_service(2, num_shards=2) as service:
            service.register_campaign("net-noop", ["o1", "o2"], max_users=5)
            shard = service.shard_of("net-noop")
            owner = service.worker_pool.placement.owner_of(shard)
            assert service.rebalance_shard(shard, owner) == 0


class TestFabricLifecycle:
    def test_close_idempotent_and_ping(self):
        service = make_service(2, num_shards=2)
        rtt = service.worker_pool.ping(0)
        assert 0 < rtt < 5.0
        processes = [h.process for h in service.worker_pool.handles]
        service.close()
        for process in processes:
            assert process.exitcode == 0
        service.close()  # second close is a no-op

    def test_close_after_host_crash_does_not_raise(self):
        """ISSUE-6 satellite: close() must be safe after a crash —
        never raise, never hang on a dead host."""
        service = make_service(2, num_shards=2)
        victim = service.worker_pool.handles[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(10.0)
        service.close()
        service.close()
