"""Crash-recovery integration tests: kill, recover, compare bitwise."""

import numpy as np
import pytest

from repro.durable import (
    FORMAT_VERSION,
    CheckpointStore,
    DurabilityConfig,
    DurabilityManager,
    RecoveryError,
    RecoveryManager,
    WriteAheadLog,
)
from repro.durable import records as rec
from repro.durable.wal import list_segments
from repro.privacy.ldp import LDPGuarantee
from repro.service import IngestService, ServiceConfig, Topology
from repro.service.ledger import BudgetLedger
from repro.service.loadgen import LoadGenerator

#: Chunk size equals the micro-batch size, so every pump leaves the
#: batcher empty: a crash between pumps then loses nothing, which is
#: what makes exact mid-stream comparisons possible.
CHUNK = 128
NUM_USERS = 40
NUM_OBJECTS = 12


def service_config():
    return ServiceConfig(num_shards=2, max_batch=CHUNK)


def make_traffic(total_chunks=24, seed=5):
    gen = LoadGenerator(
        "recov-c0",
        num_users=NUM_USERS,
        num_objects=NUM_OBJECTS,
        random_state=seed,
    )
    chunks = list(
        gen.column_chunks(total_chunks * CHUNK, chunk_size=CHUNK)
    )
    return gen, chunks


def register(service, gen, cost=None, **kwargs):
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=NUM_USERS,
        user_ids=gen.user_ids,
        cost=cost,
        **kwargs,
    )


def feed(service, chunks):
    for chunk in chunks:
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        service.pump()


def durable_service(tmp_path, **durability_kwargs):
    manager = DurabilityManager(
        DurabilityConfig(directory=tmp_path, **durability_kwargs)
    )
    service = IngestService(
        service_config(), topology=Topology.in_process(durability=manager)
    )
    return service, manager


class TestKillAndRecover:
    def test_mid_stream_crash_recovers_bitwise(self, tmp_path):
        """The acceptance test: crash mid-stream, recover, finish the
        stream; mid-point and final truths match the uncrashed run
        bit-for-bit on the replayed batches."""
        gen, chunks = make_traffic()
        crash_at = len(chunks) // 2

        # Uncrashed reference (no durability, same pipeline).
        reference = IngestService(service_config())
        register(reference, gen)
        feed(reference, chunks[:crash_at])
        ref_mid = reference.snapshot(gen.campaign_id)
        feed(reference, chunks[crash_at:])
        reference.flush()
        ref_final = reference.snapshot(gen.campaign_id)

        # Crashed run: same traffic, killed after crash_at chunks.  No
        # flush, no close — the service object is simply abandoned.
        crashed, _manager = durable_service(tmp_path)
        register(crashed, gen)
        feed(crashed, chunks[:crash_at])
        del crashed, _manager  # the "kill"

        recovered = RecoveryManager(tmp_path).recover(resume=True)
        service = recovered.service
        mid = service.snapshot(gen.campaign_id)
        assert mid.truths.tobytes() == ref_mid.truths.tobytes()
        assert mid.claims_ingested == ref_mid.claims_ingested
        assert mid.weights_by_user == ref_mid.weights_by_user

        # The recovered service keeps serving: finish the stream.
        feed(service, chunks[crash_at:])
        service.flush()
        final = service.snapshot(gen.campaign_id)
        assert final.truths.tobytes() == ref_final.truths.tobytes()
        assert final.claims_ingested == ref_final.claims_ingested
        assert final.weights_by_user == ref_final.weights_by_user
        np.testing.assert_array_equal(
            final.seen_objects, ref_final.seen_objects
        )
        recovered.durability.close()

    def test_register_record_persists_resolved_backend(self, tmp_path):
        """REGISTER records store the resolved backend kind, never
        "auto": replay must rebuild the same backend even if the
        auto-selection rules change between write and recovery."""
        from repro.durable.wal import read_wal
        from repro.service.aggregator import StreamingAggregator

        big = LoadGenerator(
            "recov-auto", num_users=200, num_objects=48, random_state=3
        )
        service, manager = durable_service(tmp_path)
        service.register_campaign(
            big.campaign_id,
            big.object_ids,
            max_users=200,
            user_ids=big.user_ids,
            method="gtm",
            aggregator="auto",
        )
        live_kind = type(
            service.campaign_state(big.campaign_id).aggregator
        )
        assert live_kind is StreamingAggregator
        manager.sync()
        specs = [
            r.decode()
            for r in read_wal(tmp_path).records
            if r.rtype == rec.REGISTER
        ]
        assert specs[0]["aggregator"] == "streaming"
        del service, manager

        recovered = RecoveryManager(tmp_path).recover()
        state = recovered.service.campaign_state(big.campaign_id)
        assert type(state.aggregator) is live_kind

    def test_legacy_auto_spec_replays_with_v1_rule(self, tmp_path):
        """Format-v1 REGISTER records stored aggregator="auto"; replay
        must resolve them with the v1 rule (only large plain-CRH
        campaigns streamed) so the rebuilt backend matches the state
        the v1 service checkpointed and the semantics it served."""
        from repro.durable.recovery import register_from_spec
        from repro.service.aggregator import (
            FullRefitAggregator,
            StreamingAggregator,
        )
        from repro.service.ingest import IngestService

        service = IngestService(service_config())
        legacy_spec = {
            "campaign_id": "legacy-gtm",
            "object_ids": [f"o{i}" for i in range(48)],
            "max_users": 200,  # 9600 cells: streams under the NEW rule
            "user_ids": None,
            "method": "gtm",
            "aggregator": "auto",
            "cost": None,
            "method_kwargs": {},
        }
        register_from_spec(service, legacy_spec)
        state = service.campaign_state("legacy-gtm")
        assert isinstance(state.aggregator, FullRefitAggregator)
        # Large plain CRH streamed in v1 — that must survive too, and
        # v1 silently dropped batch-only kwargs on its streaming path,
        # so a spec carrying them must replay (kwargs dropped again)
        # rather than fail the whole directory.
        register_from_spec(
            service,
            {
                **legacy_spec,
                "campaign_id": "legacy-crh",
                "method": "crh",
                "method_kwargs": {"distance": "squared"},
            },
        )
        state = service.campaign_state("legacy-crh")
        assert isinstance(state.aggregator, StreamingAggregator)

    @pytest.mark.parametrize("method", ["gtm", "catd"])
    def test_streaming_method_campaign_recovers_bitwise(
        self, tmp_path, method
    ):
        """ISSUE-4: crash recovery must reproduce the GTM/CATD
        streaming backends bit-for-bit, through both the checkpointed
        state (moment statistics in the npz) and WAL suffix replay."""
        kwargs = dict(method=method, aggregator="streaming")
        gen, chunks = make_traffic(total_chunks=12)
        crash_at = 8

        reference = IngestService(service_config())
        register(reference, gen, **kwargs)
        feed(reference, chunks[:crash_at])
        ref_mid = reference.snapshot(gen.campaign_id)
        feed(reference, chunks[crash_at:])
        reference.flush()
        ref_final = reference.snapshot(gen.campaign_id)

        crashed, manager = durable_service(tmp_path)
        register(crashed, gen, **kwargs)
        feed(crashed, chunks[:4])
        # Checkpoint mid-stream so recovery exercises the snapshot
        # restore path for the moment statistics, then keep streaming
        # so the WAL-replay path is exercised too.
        manager.checkpoint()
        feed(crashed, chunks[4:crash_at])
        del crashed, manager  # the "kill"

        recovered = RecoveryManager(tmp_path).recover(resume=True)
        service = recovered.service
        mid = service.snapshot(gen.campaign_id)
        assert mid.truths.tobytes() == ref_mid.truths.tobytes()
        assert mid.weights_by_user == ref_mid.weights_by_user

        feed(service, chunks[crash_at:])
        service.flush()
        final = service.snapshot(gen.campaign_id)
        assert final.truths.tobytes() == ref_final.truths.tobytes()
        assert final.claims_ingested == ref_final.claims_ingested
        assert final.weights_by_user == ref_final.weights_by_user
        recovered.durability.close()

    def test_recovery_is_idempotent(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=8)
        service, manager = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks)
        live = service.snapshot(gen.campaign_id)
        manager.sync()
        del service, manager

        first = RecoveryManager(tmp_path).recover()
        second = RecoveryManager(tmp_path).recover()
        for recovered in (first, second):
            snap = recovered.service.snapshot(gen.campaign_id)
            assert snap.truths.tobytes() == live.truths.tobytes()

    def test_crash_after_recovery_recovers_again(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=12)
        service, _ = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks[:4])
        del service

        recovered = RecoveryManager(tmp_path).recover(resume=True)
        feed(recovered.service, chunks[4:8])
        del recovered  # second crash, durability never closed

        final = RecoveryManager(tmp_path).recover()
        snap = final.service.snapshot(gen.campaign_id)
        assert snap.claims_ingested == 8 * CHUNK

    def test_protocol_path_contributors_survive(self, tmp_path):
        gen, _ = make_traffic()
        service, _manager = durable_service(tmp_path)
        # No pre-registered user ids: slots are assigned on first
        # submission and must be re-learned from USERS records.
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=NUM_USERS
        )
        submissions = gen.submissions(60)
        for submission in submissions:
            service.submit(submission)
        service.pump()
        live = service.snapshot(gen.campaign_id)
        del service, _manager

        recovered = RecoveryManager(tmp_path).recover()
        snap = recovered.service.snapshot(gen.campaign_id)
        assert snap.truths.tobytes() == live.truths.tobytes()
        assert set(snap.weights_by_user) == set(live.weights_by_user)
        assert not any(u.startswith("slot:") for u in snap.weights_by_user)


class TestCheckpoints:
    def test_checkpoint_plus_suffix_matches_full_replay(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=20)
        service, manager = durable_service(
            tmp_path, checkpoint_every_claims=6 * CHUNK
        )
        register(service, gen)
        feed(service, chunks)
        live = service.snapshot(gen.campaign_id)
        assert manager.checkpoints_written >= 2
        del service, manager

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.report.checkpoint_lsn > 0
        # Only the suffix was replayed, not the whole stream.
        assert recovered.report.claims_replayed < len(chunks) * CHUNK
        snap = recovered.service.snapshot(gen.campaign_id)
        assert snap.truths.tobytes() == live.truths.tobytes()
        assert snap.claims_ingested == live.claims_ingested
        assert snap.weights_by_user == live.weights_by_user

    def test_retention_prunes_covered_segments(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=20)
        service, manager = durable_service(
            tmp_path,
            checkpoint_every_claims=4 * CHUNK,
            max_segment_bytes=4096,
        )
        register(service, gen)
        feed(service, chunks)
        segments = list_segments(tmp_path)
        # Without retention ~20 chunks * ~1.2KiB would span many more.
        assert len(segments) < 6
        recovered = RecoveryManager(tmp_path).recover()
        snap = recovered.service.snapshot(gen.campaign_id)
        assert snap.claims_ingested == service.snapshot(
            gen.campaign_id
        ).claims_ingested
        manager.close()

    def test_corrupt_checkpoint_falls_back_to_older(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=12)
        service, manager = durable_service(
            tmp_path, checkpoint_every_claims=4 * CHUNK
        )
        register(service, gen)
        feed(service, chunks)
        live = service.snapshot(gen.campaign_id)
        paths = manager.checkpoints.paths()
        assert len(paths) >= 2
        paths[-1].write_bytes(b"torn checkpoint")
        del service, manager

        recovered = RecoveryManager(tmp_path).recover()
        snap = recovered.service.snapshot(gen.campaign_id)
        assert snap.truths.tobytes() == live.truths.tobytes()


def submission_for(gen, user_id):
    from repro.crowdsensing.messages import ClaimSubmission

    return ClaimSubmission(
        campaign_id=gen.campaign_id,
        user_id=user_id,
        object_ids=gen.object_ids[:2],
        values=(1.0, 2.0),
    )


class TestLedgerContinuity:
    def test_recovered_ledger_refuses_over_budget_users(self, tmp_path):
        gen, _ = make_traffic()
        cost = LDPGuarantee(epsilon=0.4, delta=0.0)
        manager = DurabilityManager(DurabilityConfig(directory=tmp_path))
        ledger = BudgetLedger(epsilon_cap=1.0)
        service = IngestService(
            service_config(),
            ledger=ledger,
            topology=Topology.in_process(durability=manager),
        )
        register(service, gen, cost=cost)
        submission = submission_for(gen, "user0")
        assert service.submit(submission).ok
        assert service.submit(submission).ok
        service.pump()
        spent_live = ledger.spent("user0")
        assert spent_live.epsilon == pytest.approx(0.8)
        del service, manager, ledger

        recovered = RecoveryManager(tmp_path).recover()
        rledger = recovered.service.ledger
        assert rledger is not None
        assert rledger.spent("user0") == spent_live
        # One more 0.4-epsilon release for a user who already spent
        # 0.8 would breach the 1.0 cap: the recovered ledger must say no.
        result = recovered.service.submit(submission)
        assert not result.ok and result.reason == "budget"

    def test_device_session_charge_records_are_canonical(self, tmp_path):
        # A CHARGE record carries a commit group's charges: flattened,
        # they are one entry per admission; every payload must be the
        # bytes the general JSON encoder writes for what it decodes
        # to, and replaying them must rebuild the live ledger.
        from repro.crowdsensing.messages import ClaimSubmission
        from repro.durable.wal import read_wal

        gen = LoadGenerator(
            "dev-\"c0\"", num_users=NUM_USERS, num_objects=NUM_OBJECTS,
            claims_per_submission=4, random_state=11,
        )
        manager = DurabilityManager(DurabilityConfig(directory=tmp_path))
        ledger = BudgetLedger(epsilon_cap=1.3, delta_cap=1e-5)
        service = IngestService(
            service_config(),
            ledger=ledger,
            topology=Topology.in_process(durability=manager),
        )
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=NUM_USERS,
            cost=LDPGuarantee(epsilon=0.3, delta=1e-7),
        )
        reasons = [
            service.submit(
                ClaimSubmission(
                    gen.campaign_id, f"{s.user_id} \\ \"é\"\t☃",
                    s.object_ids, s.values,
                )
            ).reason
            for s in gen.submissions(300)
        ]
        service.flush()
        assert "" in reasons and "budget" in reasons
        live = ledger.to_records()

        charges = [
            r for r in read_wal(tmp_path).records if r.rtype == rec.CHARGE
        ]
        entries = [
            entry for r in charges for entry in rec.charge_entries(r.decode())
        ]
        assert len(entries) == ledger.admitted == reasons.count("")
        for record in charges:
            assert record.payload == rec.encode_json_payload(record.decode())
        del service, manager, ledger

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.service.ledger.to_records() == live

    def test_exhausted_user_stays_exhausted_after_recovery(self, tmp_path):
        gen, _ = make_traffic()
        cost = LDPGuarantee(epsilon=0.6, delta=0.0)
        manager = DurabilityManager(DurabilityConfig(directory=tmp_path))
        service = IngestService(
            service_config(),
            ledger=BudgetLedger(epsilon_cap=1.0),
            topology=Topology.in_process(durability=manager),
        )
        register(service, gen, cost=cost)
        submission = submission_for(gen, "user1")
        assert service.submit(submission).ok
        assert not service.submit(submission).ok  # 1.2 > cap
        service.pump()
        del service, manager

        recovered = RecoveryManager(tmp_path).recover()
        assert not recovered.service.submit(submission).ok
        assert recovered.service.ledger.spent("user1").epsilon == (
            pytest.approx(0.6)
        )


class TestEdges:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no durability directory"):
            RecoveryManager(tmp_path / "nope").recover()

    def test_empty_directory_yields_empty_service(self, tmp_path):
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.service.campaign_ids == []
        assert recovered.report.records_replayed == 0

    def test_unregistered_campaign_not_recovered(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=4)
        service, _manager = durable_service(tmp_path)
        register(service, gen)
        service.register_campaign("doomed", ["a", "b"], max_users=4)
        feed(service, chunks)
        service.unregister_campaign("doomed")
        del service, _manager

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.service.campaign_ids == [gen.campaign_id]

    def test_torn_tail_is_survivable(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=6)
        service, manager = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks)
        live = service.snapshot(gen.campaign_id)
        manager.sync()
        segment = list_segments(tmp_path)[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x13half a frame that the crash cut")
        del service, manager

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.report.truncated_bytes > 0
        snap = recovered.service.snapshot(gen.campaign_id)
        assert snap.truths.tobytes() == live.truths.tobytes()

    def test_recovered_config_matches_original(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        service, _manager = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks)
        del service, _manager

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.service.config == service_config()


class TestFormatVersion:
    """A log or checkpoint from a newer layout is refused, naming both
    versions, before replay has rebuilt anything from it."""

    def test_newer_config_record_is_refused(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            # A v4 body this build cannot read: no service_config.
            wal.append(rec.CONFIG, rec.encode_json_payload(
                {"version": FORMAT_VERSION + 1, "layout": {"shards": 2}}
            ))
        with pytest.raises(RecoveryError, match=(
            f"CONFIG record 1 has layout version {FORMAT_VERSION + 1}; "
            f"this build reads versions up to {FORMAT_VERSION}"
        )):
            RecoveryManager(tmp_path).recover()

    def test_newer_config_record_after_a_checkpoint_is_refused(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        service, manager = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks)
        manager.checkpoint()
        manager.wal.append(rec.CONFIG, rec.encode_json_payload(
            {"version": FORMAT_VERSION + 1}
        ))
        manager.close()
        with pytest.raises(RecoveryError, match="layout version"):
            RecoveryManager(tmp_path).recover()

    def test_newer_checkpoint_is_refused(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        service, manager = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks)
        store = CheckpointStore(tmp_path)
        checkpoint = store.load(manager.checkpoint())
        manager.close()
        store.save(checkpoint.lsn + 1, {
            **checkpoint.payload, "version": FORMAT_VERSION + 1,
        })
        with pytest.raises(RecoveryError, match=(
            f"checkpoint at lsn {checkpoint.lsn + 1} has layout version "
            f"{FORMAT_VERSION + 1}"
        )):
            RecoveryManager(tmp_path).recover()

    def test_this_layout_is_stamped_and_read(self, tmp_path):
        gen, chunks = make_traffic(total_chunks=2)
        service, manager = durable_service(tmp_path)
        register(service, gen)
        feed(service, chunks)
        path = manager.checkpoint()
        manager.close()
        assert CheckpointStore(tmp_path).load(path).payload["version"] == 3
        assert FORMAT_VERSION == 3
        RecoveryManager(tmp_path).recover()


class TestGapSafety:
    def test_lost_checkpoint_after_retention_fails_loudly(self, tmp_path):
        """If the only checkpoint covering pruned segments is lost,
        recovery must refuse rather than silently skip the gap."""
        gen, chunks = make_traffic(total_chunks=16)
        service, manager = durable_service(
            tmp_path,
            checkpoint_every_claims=4 * CHUNK,
            max_segment_bytes=2048,
        )
        register(service, gen)
        feed(service, chunks)
        assert manager.checkpoints_written >= 2
        # Retention has pruned early segments by now; losing every
        # checkpoint leaves records 1..N unrecoverable.
        for path in manager.checkpoints.paths():
            path.unlink()
        del service, manager
        with pytest.raises(RecoveryError, match="log gap"):
            RecoveryManager(tmp_path).recover()

    def test_budget_conserved_across_concurrent_crash_recovery(
        self, tmp_path
    ):
        """Concurrent producers + auto-checkpoints: recovered spent
        budget equals the live ledger exactly (no charge lost to the
        checkpoint/suffix boundary)."""
        import threading

        gen, _ = make_traffic()
        cost = LDPGuarantee(epsilon=0.0001, delta=0.0)
        manager = DurabilityManager(
            DurabilityConfig(
                directory=tmp_path, checkpoint_every_claims=2 * CHUNK
            )
        )
        ledger = BudgetLedger(epsilon_cap=1e9)
        service = IngestService(
            service_config(),
            ledger=ledger,
            topology=Topology.in_process(durability=manager),
        )
        register(service, gen, cost=cost)

        stop = threading.Event()

        def producer(seed):
            rng = __import__("numpy").random.default_rng(seed)
            for _ in range(80):
                service.submit_columns(
                    gen.campaign_id,
                    rng.integers(0, NUM_USERS, size=CHUNK),
                    rng.integers(0, NUM_OBJECTS, size=CHUNK),
                    rng.normal(size=CHUNK),
                )

        def pump_loop():
            while not stop.is_set():
                service.pump()

        pumper = threading.Thread(target=pump_loop)
        producers = [
            threading.Thread(target=producer, args=(s,)) for s in range(4)
        ]
        pumper.start()
        for t in producers:
            t.start()
        for t in producers:
            t.join(timeout=60)
            assert not t.is_alive()
        stop.set()
        pumper.join(timeout=60)
        service.pump()
        manager.sync()
        live_spent = {
            f"user{i}": ledger.spent(f"user{i}").epsilon
            for i in range(NUM_USERS)
        }
        del service, manager, ledger

        recovered = RecoveryManager(tmp_path).recover()
        rledger = recovered.service.ledger
        for user_id, eps in live_spent.items():
            assert rledger.spent(user_id).epsilon == pytest.approx(
                eps, abs=1e-12
            ), f"budget drifted for {user_id}"
