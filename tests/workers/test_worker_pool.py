"""End-to-end tests for the multi-process shard-worker pool.

Every worker is a launcher-forked ``repro serve-shard`` child on a
loopback port (``Topology.workers(n)``, the unsupervised fabric).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.durable import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryManager,
)
from repro.durable import records as rec
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)
from repro.workers import WorkerCrashedError, WorkerError
from repro.workers.handles import RemoteAggregator


def make_service(workers, *, num_shards=4, **overrides):
    defaults = dict(num_shards=num_shards, max_batch=512)
    defaults.update(overrides)
    ledger = defaults.pop("ledger", None)
    durability = defaults.pop("durability", None)
    if workers:
        topology = Topology.workers(workers, durability=durability)
    else:
        topology = Topology.in_process(durability=durability)
    return IngestService(
        ServiceConfig(**defaults), ledger=ledger, topology=topology
    )


def stream_campaigns(
    service, *, num_campaigns=4, claims=12_000, seed=11, **register_kwargs
):
    """Register campaigns, stream identical bulk traffic, return snapshots."""
    generators = []
    per_campaign = []
    for c in range(num_campaigns):
        gen = LoadGenerator(
            f"wp-c{c}", num_users=40, num_objects=24, random_state=seed + c
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=40,
            user_ids=gen.user_ids,
            **register_kwargs,
        )
        generators.append(gen)
        per_campaign.append(
            list(
                gen.column_chunks(
                    max(claims // num_campaigns, 1), chunk_size=768
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
        if i % 4 == 3:
            service.pump()
    service.flush()
    return {
        gen.campaign_id: service.snapshot(gen.campaign_id)
        for gen in generators
    }


class TestBitwiseAgreement:
    def test_bulk_truths_match_single_process_bitwise(self):
        with make_service(0) as single:
            expected = stream_campaigns(single)
        with make_service(2) as multi:
            got = stream_campaigns(multi)
        for cid, snap in expected.items():
            other = got[cid]
            assert np.array_equal(snap.truths, other.truths)
            assert np.array_equal(snap.seen_objects, other.seen_objects)
            assert snap.weights_by_user == other.weights_by_user
            assert snap.claims_ingested == other.claims_ingested
            assert snap.batches_ingested == other.batches_ingested

    def test_one_worker_per_shard(self):
        with make_service(0, num_shards=2) as single:
            expected = stream_campaigns(single, num_campaigns=3)
        with make_service(2, num_shards=2) as multi:
            got = stream_campaigns(multi, num_campaigns=3)
        for cid, snap in expected.items():
            assert np.array_equal(snap.truths, got[cid].truths)

    def test_submission_path_matches(self):
        def run(workers):
            service = make_service(workers, max_batch=64)
            gen = LoadGenerator(
                "wp-subs", num_users=30, num_objects=12,
                claims_per_submission=4, random_state=5,
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=30,
                user_ids=gen.user_ids,
            )
            for i, sub in enumerate(gen.submissions(600)):
                service.submit(sub)
                if i % 50 == 49:
                    service.pump()
            snap = service.snapshot(gen.campaign_id)
            service.close()
            return snap

        a, b = run(0), run(2)
        assert np.array_equal(a.truths, b.truths)
        assert a.weights_by_user == b.weights_by_user

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_streaming_method_campaigns_match_bitwise(self, method):
        """ISSUE-4: the non-CRH streaming backends must stay bitwise
        identical across the process boundary (aggregator="streaming"
        forces streaming — these campaigns are below the auto
        threshold)."""
        kwargs = dict(method=method, aggregator="streaming")
        with make_service(0) as single:
            expected = stream_campaigns(
                single, num_campaigns=3, claims=6_000, **kwargs
            )
        with make_service(2) as multi:
            got = stream_campaigns(
                multi, num_campaigns=3, claims=6_000, **kwargs
            )
        for cid, snap in expected.items():
            other = got[cid]
            assert np.array_equal(snap.truths, other.truths)
            assert snap.weights_by_user == other.weights_by_user
            assert snap.claims_ingested == other.claims_ingested


class TestServiceSurface:
    def test_remote_campaigns_use_proxy_aggregators(self):
        with make_service(2) as service:
            gen = LoadGenerator(
                "wp-proxy", num_users=30, num_objects=20, random_state=1
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=30
            )
            state = service.campaign_state(gen.campaign_id)
            assert isinstance(state.aggregator, RemoteAggregator)
            assert service.num_workers == 2

    def test_mid_stream_snapshot_counts_pending(self):
        with make_service(1, max_batch=512) as service:
            gen = LoadGenerator(
                "wp-pending", num_users=20, num_objects=10, random_state=2
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=20,
                user_ids=gen.user_ids,
            )
            chunk = next(gen.column_chunks(100, chunk_size=100))
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots,
                chunk.values,
            )
            snap = service.snapshot(gen.campaign_id)
            # snapshot() flushes the campaign: everything is aggregated.
            assert snap.claims_ingested == 100
            assert snap.pending_claims == 0

    def test_budget_ledger_admission_stays_parent_side(self):
        ledger = BudgetLedger(
            epsilon_cap=1.0, accountant=PrivacyAccountant()
        )
        with make_service(2, ledger=ledger) as service:
            gen = LoadGenerator(
                "wp-budget", num_users=10, num_objects=6,
                claims_per_submission=2, random_state=3,
            )
            service.register_campaign(
                gen.campaign_id,
                gen.object_ids,
                max_users=10,
                user_ids=gen.user_ids,
                cost=LDPGuarantee(epsilon=0.6, delta=0.0),
            )
            subs = gen.submissions(40)
            results = [service.submit(s) for s in subs]
            assert any(r.reason == "budget" for r in results)
            service.flush()
            snap = service.snapshot(gen.campaign_id)
            assert snap.claims_ingested == sum(
                r.accepted for r in results
            )

    def test_unregister_drops_remote_campaign(self):
        with make_service(1) as service:
            gen = LoadGenerator(
                "wp-unreg", num_users=10, num_objects=6,
                claims_per_submission=2, random_state=4,
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=10
            )
            service.unregister_campaign(gen.campaign_id)
            service.worker_pool.sync()
            # Re-registering must work (worker state dropped too).
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=10
            )
            service.worker_pool.sync()

    def test_workers_capped_by_shards(self):
        with pytest.raises(ValueError):
            make_service(5, num_shards=4)


class TestLifecycle:
    def test_clean_shutdown_exits_zero(self):
        service = make_service(2)
        processes = [
            h.process for h in service.worker_pool.handles
        ]
        service.close()
        for process in processes:
            assert process.exitcode == 0
        # close() is idempotent.
        service.close()

    def test_killed_worker_raises_clear_error(self):
        service = make_service(2)
        try:
            gen = LoadGenerator(
                "wp-crash", num_users=10, num_objects=6,
                claims_per_submission=2, random_state=6,
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=10
            )
            victim = service.worker_pool.handle_for(
                service.shard_of(gen.campaign_id)
            )
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10)
            deadline = time.monotonic() + 10
            with pytest.raises(WorkerCrashedError) as excinfo:
                while time.monotonic() < deadline:
                    for chunk in gen.column_chunks(512, chunk_size=256):
                        service.submit_columns(
                            chunk.campaign_id,
                            chunk.user_slots,
                            chunk.object_slots,
                            chunk.values,
                        )
                    service.pump()
            assert "worker" in str(excinfo.value)
        finally:
            service.close()

    def test_close_after_worker_crash_does_not_raise(self):
        """close() must stay safe after a crash: no exception, no hang
        on the dead worker, and a second close is still a no-op."""
        service = make_service(2)
        victim = service.worker_pool.handles[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)
        service.close()
        service.close()

    def test_remote_failure_surfaces_traceback(self):
        """The frame that failed comes back as the remote traceback,
        not as a bare broken stream."""
        service = IngestService(
            ServiceConfig(num_shards=4, max_batch=512),
            topology=Topology.workers(1),
        )
        try:
            handle = service.worker_pool.handles[0]
            handle.send(rec.BATCH, b"garbage bytes")
            with pytest.raises(WorkerError) as excinfo:
                handle.sync()
            assert "Traceback" in str(excinfo.value)
        finally:
            service.close()


class TestScriptWithoutMainGuard:
    def test_a_module_level_pool_runs_from_a_plain_script(self, tmp_path):
        """Workers are launcher forks, so a script needs no
        ``if __name__ == "__main__"`` guard: nothing re-imports it in
        the child (``spawn`` did, and refused to start a pool there)."""
        script = tmp_path / "no_guard.py"
        script.write_text(textwrap.dedent("""
            import numpy as np
            from repro.service import IngestService, ServiceConfig, Topology

            service = IngestService(
                ServiceConfig(num_shards=2), topology=Topology.workers(1)
            )
            service.register_campaign("c", ["a", "b"], max_users=2)
            service.submit_columns(
                "c", np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0])
            )
            snapshot = service.snapshot("c")
            assert snapshot.claims_ingested == 2, snapshot
            service.close()
            print("OK")
        """))
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "OK"


class TestDurabilityIntegration:
    def test_checkpoint_from_remote_state_and_recovery(self, tmp_path):
        durability = DurabilityManager(
            DurabilityConfig(directory=tmp_path, fsync="never")
        )
        service = make_service(2, durability=durability)
        try:
            gen = LoadGenerator(
                "wp-durable", num_users=40, num_objects=24, random_state=8
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=40,
                user_ids=gen.user_ids,
            )
            chunks = list(gen.column_chunks(20_000, chunk_size=1024))
            for chunk in chunks[:10]:
                service.submit_columns(
                    chunk.campaign_id, chunk.user_slots,
                    chunk.object_slots, chunk.values,
                )
            service.pump()
            # state_dict crosses the process boundary here.
            durability.checkpoint()
            for chunk in chunks[10:]:
                service.submit_columns(
                    chunk.campaign_id, chunk.user_slots,
                    chunk.object_slots, chunk.values,
                )
            service.flush()
            live = service.snapshot(gen.campaign_id)
            durability.close()
        finally:
            service.close()

        recovered = RecoveryManager(tmp_path).recover()
        snap = recovered.service.snapshot(gen.campaign_id)
        assert recovered.report.checkpoint_lsn > 0
        assert np.array_equal(live.truths, snap.truths)
        assert live.weights_by_user == snap.weights_by_user

    def test_workers_match_durable_single_process_run(self, tmp_path):
        def run(workers, directory):
            durability = DurabilityManager(
                DurabilityConfig(directory=directory, fsync="never")
            )
            service = make_service(workers, durability=durability)
            try:
                snaps = stream_campaigns(
                    service, num_campaigns=2, claims=6_000
                )
            finally:
                durability.close()
                service.close()
            return snaps

        a = run(0, tmp_path / "single")
        b = run(2, tmp_path / "workers")
        for cid in a:
            assert np.array_equal(a[cid].truths, b[cid].truths)
        # Both logs replay to the same truths: durability logging sits
        # parent-side, so workers change no logged byte.
        for directory in (tmp_path / "single", tmp_path / "workers"):
            recovered = RecoveryManager(directory).recover()
            for cid in a:
                assert np.array_equal(
                    a[cid].truths,
                    recovered.service.snapshot(cid).truths,
                )
