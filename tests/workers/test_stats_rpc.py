"""STATS RPC tests: worker registries crossing back to the parent."""

import numpy as np

from repro.service import (
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)


def make_service(workers, **overrides):
    defaults = dict(num_shards=4, max_batch=512)
    defaults.update(overrides)
    topology = (
        Topology.workers(workers)
        if workers
        else Topology.in_process()
    )
    return IngestService(ServiceConfig(**defaults), topology=topology)


def stream(service, *, claims=4_000, seed=7):
    gen = LoadGenerator(
        "stats-c0", num_users=40, num_objects=24, random_state=seed
    )
    service.register_campaign(
        gen.campaign_id, gen.object_ids, max_users=40,
        user_ids=gen.user_ids,
    )
    for chunk in gen.column_chunks(claims, chunk_size=512):
        service.submit_columns(
            chunk.campaign_id, chunk.user_slots, chunk.object_slots,
            chunk.values,
        )
    service.flush()
    service.sync_workers()
    return gen


class TestStatsRpc:
    def test_handle_metrics_returns_worker_snapshot(self):
        service = make_service(workers=2)
        try:
            stream(service)
            snapshots = [
                handle.metrics()
                for handle in service.worker_pool.handles
            ]
            total = sum(
                snap.value("repro_worker_claims_total") or 0
                for snap in snapshots
            )
            assert total == service.stats.claims_accepted
            batch_total = sum(
                snap.value("repro_worker_batches_total") or 0
                for snap in snapshots
            )
            assert batch_total >= 1
        finally:
            service.close()

    def test_merged_snapshot_carries_proc_labelled_series(self):
        """One scrape of the parent sees every process, unsupervised
        and supervised (same STATS frames, same runtime)."""
        for topology in (
            Topology.workers(2),
            Topology.fabric(2),
        ):
            service = IngestService(
                ServiceConfig(num_shards=4, max_batch=512),
                topology=topology,
            )
            try:
                gen = stream(service)
                service.snapshot(gen.campaign_id)
                service.sync_workers()  # refreshes cached remote snapshots
                snap = service.metrics_snapshot()
                per_proc = {
                    labels_dict.get("proc"): value
                    for (name, labels), value in snap.counters.items()
                    if name == "repro_worker_claims_total"
                    for labels_dict in [dict(labels)]
                }
                assert set(per_proc) <= {"worker0", "worker1"}
                assert (
                    sum(per_proc.values()) == service.stats.claims_accepted
                )
                # RPC latency histograms per handle proc label.
                rpc_procs = {
                    dict(labels).get("proc")
                    for (name, labels) in snap.histograms
                    if name == "repro_fabric_rpc_seconds"
                }
                assert rpc_procs
            finally:
                service.close()

    def test_fabric_rpc_histogram_is_cumulative(self):
        """``repro_fabric_rpc_seconds`` counts every RPC a handle ever
        made — not the last 1 024 of them re-bucketed per scrape, which
        pinned ``_count`` and let ``_sum`` fall between scrapes."""

        def scrape(service):
            snap = service.metrics_snapshot()
            (hist,) = [
                value
                for (name, _labels), value in snap.histograms.items()
                if name == "repro_fabric_rpc_seconds"
            ]
            return hist

        service = make_service(workers=1)
        try:
            handle = service.worker_pool.handles[0]
            base = handle.rpc_count
            for _ in range(750):
                handle.sync()
            first = scrape(service)
            for _ in range(750):
                handle.sync()
            second = scrape(service)
            assert first["count"] == base + 750
            assert second["count"] == base + 1500 == handle.rpc_count
            assert sum(second["counts"]) == second["count"]
            assert second["sum"] >= first["sum"] > 0.0
        finally:
            service.close()

    def test_stats_rpc_does_not_perturb_aggregation(self):
        solo = make_service(workers=0)
        pooled = make_service(workers=2)
        try:
            gen_a = stream(solo)
            gen_b = stream(pooled)
            for handle in pooled.worker_pool.handles:
                handle.metrics()
            pooled.sync_workers()
            truths_solo = solo.snapshot(gen_a.campaign_id).truths
            truths_pool = pooled.snapshot(gen_b.campaign_id).truths
            assert np.array_equal(truths_solo, truths_pool)
        finally:
            solo.close()
            pooled.close()

    def test_obs_disabled_worker_answers_empty_snapshot(self):
        service = make_service(workers=1, obs=False)
        try:
            stream(service)
            (handle,) = service.worker_pool.handles
            snap = handle.metrics()
            assert snap.counters == {} and snap.histograms == {}
        finally:
            service.close()
