"""A fabric read of an unchanged campaign is served from the parent:
the proxy's snapshot is kept like an in-process one, so a re-read
sends no RPC, and a re-homed campaign still reads what an in-process
twin fed the same calls reads."""

from repro.service import IngestService, LoadGenerator, ServiceConfig, Topology


def feed(services, chunks):
    for chunk in chunks:
        for service in services:
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots,
                chunk.values,
            )
            service.pump()


def test_unchanged_re_read_sends_no_rpc_and_rebalance_matches_in_process():
    gen = LoadGenerator("proxy-c0", num_users=40, num_objects=24, random_state=5)
    chunks = list(gen.column_chunks(3 * 512, chunk_size=512))
    config = ServiceConfig(num_shards=4, max_batch=256)
    twin = IngestService(config)
    service = IngestService(config, topology=Topology.workers(2))
    try:
        for each in (service, twin):
            each.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=40,
                user_ids=gen.user_ids,
            )
        feed((service, twin), chunks[:2])
        first = service.snapshot(gen.campaign_id)
        assert first == twin.snapshot(gen.campaign_id)

        shard = service.shard_of(gen.campaign_id)
        handle = service.worker_pool.handle_for(shard)
        rpcs = handle.rpc_count
        assert service.snapshot(gen.campaign_id) is first
        assert handle.rpc_count == rpcs
        assert service.stats.snapshot_reads_unchanged == 1

        target = 1 - service.worker_pool.placement.owner_of(shard)
        assert service.rebalance_shard(shard, target) == 1
        feed((service, twin), chunks[2:])
        moved = service.snapshot(gen.campaign_id)
        expected = twin.snapshot(gen.campaign_id)
        assert moved is not first
        assert moved == expected
        assert service.snapshot(gen.campaign_id) is moved
    finally:
        service.close()
        twin.close()
