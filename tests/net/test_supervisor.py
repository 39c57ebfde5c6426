"""Supervised failover: kill a shard host, recover bitwise.

ISSUE-6 satellite (c): kill a shard-host subprocess mid-stream and
assert the supervisor's restart-from-checkpoint replay yields truths
bitwise-equal to a run that never crashed — and that privacy budget
spent before the crash stays spent.
"""

import json
import os
import signal

import numpy as np
import pytest

from repro.durable import records as rec
from repro.net.supervisor import JOURNALLED_TYPES, HostJournal, Supervisor
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    ServiceConfig,
    Topology,
)
from repro.workers import WorkerCrashedError
from repro.workers import protocol as proto
from repro.workers.handles import WorkerHandle

from test_fabric import assert_snapshots_bitwise_equal, stream_campaigns

COST = LDPGuarantee(epsilon=0.002, delta=0.0)


def make_budgeted_service(hosts, *, supervise=True):
    return IngestService(
        ServiceConfig(num_shards=4, max_batch=256),
        ledger=BudgetLedger(epsilon_cap=50.0, accountant=PrivacyAccountant()),
        topology=(
            Topology.fabric(hosts, supervise=supervise)
            if hosts
            else Topology.in_process()
        ),
    )


class TestHostJournal:
    def test_register_unregister_track_specs(self):
        journal = HostJournal()
        spec = {"campaign_id": "c1", "num_users": 3, "num_objects": 2}
        journal.record(rec.REGISTER, rec.encode_json_payload(spec))
        assert journal.specs == {"c1": spec}
        journal.record(
            rec.UNREGISTER, rec.encode_json_payload({"campaign_id": "c1"})
        )
        assert journal.specs == {}
        assert len(journal.frames) == 2

    def test_batch_frames_count_claims(self):
        journal = HostJournal()
        item = rec.WorkItem(
            "c1",
            np.array([0, 1, 2], dtype=np.int64),
            np.array([0, 0, 1], dtype=np.int64),
            np.array([1.0, 2.0, 3.0]),
        )
        journal.record(rec.BATCH, item.to_bytes())
        assert journal.claims_since_capture == 3
        assert journal.bytes_since_capture == len(item.to_bytes())

    def test_capture_restarts_the_journal(self):
        journal = HostJournal()
        spec = {"campaign_id": "c1", "num_users": 3, "num_objects": 2}
        journal.record(rec.REGISTER, rec.encode_json_payload(spec))
        blob = proto.pack_state({"campaign_id": "c1", "state": {}})
        journal.capture({"c1": blob})
        assert journal.captured["c1"] == (spec, blob)
        assert journal.frames == []
        assert journal.claims_since_capture == 0
        assert journal.bytes_since_capture == 0
        assert journal.captured_bytes == len(blob)
        assert journal.captures == 1
        # The registration itself lives in the capture now, not the
        # frame tail — replay must not register twice.

    def test_journalled_types_cover_state_changes(self):
        assert rec.REGISTER in JOURNALLED_TYPES
        assert rec.UNREGISTER in JOURNALLED_TYPES
        assert rec.BATCH in JOURNALLED_TYPES
        assert rec.REFRESH in JOURNALLED_TYPES
        assert proto.LOAD_STATE in JOURNALLED_TYPES
        # RPC requests and control frames are not replayed.
        assert proto.SNAPSHOT_REQ not in JOURNALLED_TYPES
        assert proto.SYNC_REQ not in JOURNALLED_TYPES

    def test_supervisor_rejects_silly_cadence(self):
        with pytest.raises(ValueError):
            Supervisor(None, checkpoint_every_claims=0)


def kill_owner_of(service, campaign_id):
    """SIGKILL the shard host owning ``campaign_id`` and reap it."""
    victim = service.worker_pool.handle_for(service.shard_of(campaign_id))
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.join(10.0)


class TestFailover:
    def test_kill_mid_stream_recovers_bitwise_and_budget_stays_spent(self):
        with make_budgeted_service(0) as baseline:
            expected = stream_campaigns(baseline, cost=COST)
            expected_spent = {
                user: baseline.ledger.spent(user).epsilon
                for user in ("user0", "user7", "user29")
            }

        crashed = {}

        def crash(service):
            crashed["spent_before"] = service.ledger.spent("user0").epsilon
            kill_owner_of(service, "net-c0")
            crashed["spent_after_kill"] = service.ledger.spent(
                "user0"
            ).epsilon

        with make_budgeted_service(2) as service:
            got = stream_campaigns(service, cost=COST, midstream=crash)
            stats = service.fabric_stats()["supervision"]
            final_spent = {
                user: service.ledger.spent(user).epsilon
                for user in expected_spent
            }

        # The crash was absorbed: exactly one restart, and the time it
        # took is on the record.
        assert stats["restarts"] == 1
        assert stats["last_failover_seconds"] > 0
        assert len(stats["failover_seconds"]) == 1
        # Budget charged before the crash was not refunded by recovery.
        assert crashed["spent_after_kill"] == crashed["spent_before"]
        assert crashed["spent_before"] > 0
        # End state: bitwise-identical truths AND identical ledgers.
        assert final_spent == expected_spent
        assert_snapshots_bitwise_equal(expected, got)

    def test_kill_after_checkpoint_replays_only_the_suffix(self):
        """With an aggressive checkpoint cadence the journal is
        captured mid-stream, so failover replays capture + suffix
        rather than the whole history — and is still bitwise-exact.
        The stream is long enough for the victim to pass the claim
        floor, so its first capture comes before the kill."""
        with IngestService(ServiceConfig(num_shards=4, max_batch=256)) \
                as baseline:
            expected = stream_campaigns(baseline, claims=12_000)

        captures_at_kill = []

        def kill_after_a_capture(service):
            victim = service.worker_pool.handle_for(
                service.shard_of("net-c1")
            )
            captures_at_kill.append(victim.journal.captures)
            kill_owner_of(service, "net-c1")

        service = IngestService(
            ServiceConfig(num_shards=4, max_batch=256),
            topology=Topology.fabric(2),
        )
        service.worker_pool.supervisor.checkpoint_every_claims = 400
        try:
            got = stream_campaigns(
                service, claims=12_000, midstream=kill_after_a_capture
            )
            stats = service.fabric_stats()["supervision"]
            # The cadence fired before the kill (so the replay was a
            # capture plus a suffix), and the failover took one more.
            assert captures_at_kill[0] >= 1
            assert stats["restarts"] == 1
            assert stats["captures"] >= 2
        finally:
            service.close()
        assert_snapshots_bitwise_equal(expected, got)

    def test_snapshot_rpc_failover_retries(self):
        """A host dying right before the first read: the snapshot RPC
        fails over and retries against the replacement, transparently."""

        def run(crash):
            with IngestService(
                ServiceConfig(num_shards=2, max_batch=64),
                topology=Topology.fabric(2),
            ) as service:
                service.register_campaign(
                    "net-rpc", [f"o{i}" for i in range(6)], max_users=8
                )
                rng = np.random.default_rng(3)
                for _ in range(4):
                    service.submit_columns(
                        "net-rpc",
                        rng.integers(0, 8, 32),
                        rng.integers(0, 6, 32),
                        rng.normal(size=32),
                    )
                    service.pump()
                service.sync_workers()
                if crash:
                    kill_owner_of(service, "net-rpc")
                # First read: nothing cached, so this is a live RPC —
                # in the crash run it lands on a dead socket.
                snap = service.snapshot("net-rpc")
                restarts = service.fabric_stats()["supervision"]["restarts"]
            return snap, restarts

        expected, baseline_restarts = run(crash=False)
        got, crash_restarts = run(crash=True)
        assert baseline_restarts == 0
        assert crash_restarts == 1
        assert np.array_equal(expected.truths, got.truths)

    def test_host_loss_rehomes_bitwise_and_budget_stays_spent(self):
        """ISSUE-10 tentpole (a): when every respawn attempt is refused
        (``proc.spawn`` fault at rate 1.0), the supervisor declares the
        host lost and re-homes its shards onto the survivor from the
        journal — truths bitwise-equal to an uncrashed run, budget
        spent before the loss stays spent, placement epoch advanced."""
        from repro.chaos import DEFAULT_RATES, FaultPlan, install, uninstall

        with make_budgeted_service(0) as baseline:
            expected = stream_campaigns(baseline, cost=COST)
            expected_spent = {
                user: baseline.ledger.spent(user).epsilon
                for user in ("user0", "user7", "user29")
            }

        rates = {point: 0.0 for point in DEFAULT_RATES}
        rates["proc.spawn"] = 1.0
        install(FaultPlan(5, rates=rates))
        try:
            with make_budgeted_service(2) as service:
                got = stream_campaigns(
                    service,
                    cost=COST,
                    midstream=lambda s: kill_owner_of(s, "net-c0"),
                )
                stats = service.fabric_stats()["supervision"]
                placement_epoch = (
                    service.worker_pool.placement.epoch
                )
                final_spent = {
                    user: service.ledger.spent(user).epsilon
                    for user in expected_spent
                }
                metrics = service.metrics_snapshot()
        finally:
            uninstall()

        # The loss was permanent: no restart succeeded, every bounded
        # respawn attempt was burned, and exactly one rehome happened.
        assert stats["restarts"] == 0
        assert stats["rehomes"] == 1
        assert stats["respawn_retries"] == 4
        assert stats["hosts_lost"] == [
            stats["hosts_lost"][0]
        ]  # exactly one host on the casualty list
        assert stats["last_rehome_seconds"] > 0
        assert stats["rehome_seconds"] == [stats["last_rehome_seconds"]]
        # Both of the dead host's shards moved, each bumping the epoch.
        assert placement_epoch == 2
        assert stats["placement_epoch"] == 2
        # Budget charged before the loss was not refunded by the rehome.
        assert final_spent == expected_spent
        assert_snapshots_bitwise_equal(expected, got)
        # The degraded mode is on the telemetry surface (ISSUE-10
        # tentpole (c)): lost-host gauge, placement epoch, rehome
        # counters, and the rehome-duration histogram.
        assert metrics.value("repro_degraded_hosts") == 1
        assert metrics.value("repro_placement_epoch") == 2
        assert metrics.value("repro_fabric_rehomes_total") == 1
        assert metrics.value("repro_fabric_hosts_lost_total") == 1
        assert metrics.value("repro_fabric_restarts_total") == 0
        rehome_hist = metrics.histograms.get(
            ("repro_fabric_rehome_seconds", ())
        )
        assert rehome_hist is not None and rehome_hist["count"] == 1

    def test_rehome_with_no_survivors_raises(self):
        """A single-host fabric has nowhere to re-home: permanent loss
        must surface as WorkerCrashedError, not hang or heal."""
        from repro.chaos import DEFAULT_RATES, FaultPlan, install, uninstall

        rates = {point: 0.0 for point in DEFAULT_RATES}
        rates["proc.spawn"] = 1.0
        install(FaultPlan(5, rates=rates))
        try:
            with IngestService(
                ServiceConfig(num_shards=2, max_batch=64),
                topology=Topology.fabric(1),
            ) as service:
                service.register_campaign(
                    "net-lone", ["o1", "o2"], max_users=4
                )
                kill_owner_of(service, "net-lone")
                with pytest.raises(WorkerCrashedError):
                    for _ in range(50):
                        service.submit_columns(
                            "net-lone",
                            np.array([0, 1], dtype=np.int64),
                            np.array([0, 1], dtype=np.int64),
                            np.array([1.0, 2.0]),
                        )
                        service.pump()
                        service.sync_workers()
        finally:
            uninstall()

    def test_unsupervised_fabric_fails_fast(self):
        """supervise=False is ``Topology.workers``' contract: a dead
        host surfaces as WorkerCrashedError instead of healing."""
        with IngestService(
            ServiceConfig(num_shards=2, max_batch=64),
            topology=Topology.fabric(2, supervise=False),
        ) as service:
            assert service.worker_pool.supervisor is None
            service.register_campaign("net-ff", ["o1", "o2"], max_users=4)
            kill_owner_of(service, "net-ff")
            with pytest.raises(WorkerCrashedError):
                for _ in range(50):
                    service.submit_columns(
                        "net-ff",
                        np.array([0, 1], dtype=np.int64),
                        np.array([0, 1], dtype=np.int64),
                        np.array([1.0, 2.0]),
                    )
                    service.pump()
                    service.sync_workers()


class TestDeathMidSweep:
    """A host dying inside ``Supervisor.checkpoint``'s sweep: the
    failover the interrupted request triggers already captured the
    replacement (or re-homed the campaigns), so the sweep must stop
    there instead of fetching and adopting everything a second time.

    The death is noticed either when the request's write fails or when
    its response never comes; which one is the kernel's choice (a peer
    killed with unread frames resets the connection), so both are
    forced here: a drained host closes quietly and the write goes
    through, a closed parent-side stream fails the write.
    """

    @staticmethod
    def kill_before_state_req(monkeypatch, victim, nth, noticed_on, issued):
        """SIGKILL ``victim`` right before its ``nth`` ``STATE_REQ``
        goes on the wire; every one it is asked lands in ``issued``."""
        real_request = WorkerHandle.request
        victim.sync()

        def request(handle, rtype, payload, expect):
            if handle is victim and rtype == proto.STATE_REQ:
                issued.append(json.loads(payload)["campaign_id"])
                if len(issued) == nth:
                    os.kill(victim.process.pid, signal.SIGKILL)
                    victim.process.join(10.0)
                    if noticed_on == "send":
                        victim._conn.close()
            return real_request(handle, rtype, payload, expect)

        monkeypatch.setattr(WorkerHandle, "request", request)

    @pytest.mark.parametrize("noticed_on", ["send", "response"])
    def test_respawned_host_is_captured_once(self, monkeypatch, noticed_on):
        with make_budgeted_service(0) as baseline:
            expected = stream_campaigns(baseline)

        issued = []
        seen = {}

        def sweep(service):
            (victim,) = service.worker_pool.handles
            supervisor = service.worker_pool.supervisor
            captures = victim.journal.captures
            self.kill_before_state_req(
                monkeypatch, victim, 2, noticed_on, issued
            )
            supervisor.checkpoint(victim)
            seen["captures"] = victim.journal.captures - captures
            seen["restarts"] = supervisor.restarts

        with make_budgeted_service(1) as service:
            got = stream_campaigns(service, midstream=sweep)

        assert seen == {"captures": 1, "restarts": 1}
        # One answered, one that hit the corpse, the failover's own
        # sweep of three — and nothing once the interrupted request was
        # answered: by its retry when the response went missing, by the
        # re-sent frame (no new request) when the write failed.
        retry = ["net-c1"] if noticed_on == "response" else []
        assert issued == [
            "net-c0", "net-c1", "net-c0", "net-c1", "net-c2", *retry
        ]
        assert_snapshots_bitwise_equal(expected, got)

    @pytest.mark.parametrize("noticed_on", ["send", "response"])
    def test_lost_host_ends_the_sweep(self, monkeypatch, noticed_on):
        from repro.chaos import DEFAULT_RATES, FaultPlan, installed

        with make_budgeted_service(0) as baseline:
            expected = stream_campaigns(baseline)

        issued = []
        seen = {}

        def sweep(service):
            pool = service.worker_pool
            victim = max(pool.handles, key=lambda h: len(h.journal.specs))
            assert len(victim.journal.specs) >= 2
            captures = victim.journal.captures
            self.kill_before_state_req(
                monkeypatch, victim, 1, noticed_on, issued
            )
            pool.supervisor.checkpoint(victim)
            seen["lost"] = victim.lost
            seen["captures"] = victim.journal.captures - captures
            seen["rehomes"] = pool.supervisor.rehomes

        rates = {**dict.fromkeys(DEFAULT_RATES, 0.0), "proc.spawn": 1.0}
        with installed(FaultPlan(5, rates=rates)), \
                make_budgeted_service(2) as service:
            got = stream_campaigns(service, midstream=sweep)

        # The request that hit the corpse was answered by the survivor
        # that adopted the campaign; the retired host is asked nothing
        # more, is re-homed once, and its journal adopts nothing.
        assert seen == {"lost": True, "captures": 0, "rehomes": 1}
        assert len(issued) == 1
        assert_snapshots_bitwise_equal(expected, got)
