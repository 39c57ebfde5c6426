"""One attach path: crash recovery's ``resume``, a standby's promotion
and a late ``attach_durability`` on a volatile service are the same
call, and each checkpoints the campaigns the service already holds."""

import shutil
from dataclasses import asdict

import numpy as np
import per_charge_reference

from repro.durable import (
    CheckpointStore,
    DurabilityManager,
    RecoveryManager,
    WriteAheadLog,
    read_wal,
)
from repro.durable import records as rec
from repro.privacy.ldp import LDPGuarantee
from repro.replication.standby import StandbyServer
from repro.service import IngestService, ServiceConfig
from repro.service.ledger import BudgetLedger
from repro.service.loadgen import LoadGenerator

CONFIG = ServiceConfig(num_shards=2, max_batch=16)
OBJECTS = [f"o{i}" for i in range(48)]
#: Format-v1 REGISTER bodies stored the unresolved ``"auto"`` kind:
#: under the v1 rule a large GTM campaign refits in full and a large
#: CRH one streams (its batch-only kwarg dropped on replay).
V1_BODIES = [
    {
        "campaign_id": "legacy-gtm",
        "object_ids": OBJECTS,
        "max_users": 200,
        "user_ids": None,
        "method": "gtm",
        "aggregator": "auto",
        "cost": {"epsilon": 0.5, "delta": 0.0},
        "method_kwargs": {},
    },
    {
        "campaign_id": "legacy-crh",
        "object_ids": OBJECTS,
        "max_users": 200,
        "user_ids": ["alice", "bob"],
        "method": "crh",
        "aggregator": "auto",
        "cost": None,
        "method_kwargs": {"distance": "squared"},
    },
]


def write_v1_log(directory):
    """A format-v1 log: CONFIG, the two REGISTER bodies, user slots,
    batches, a read-forced refresh and budget charges.  Returns the
    per-campaign counters the batches imply and the last LSN."""
    rng = np.random.default_rng(7)
    counters = {}
    with WriteAheadLog(directory, fsync="never") as wal:
        wal.append(rec.CONFIG, rec.encode_json_payload({
            "version": 1,
            "service_config": asdict(CONFIG),
            "ledger": {"epsilon_cap": 10.0, "delta_cap": 1.0},
        }))
        for body in V1_BODIES:
            wal.append(rec.REGISTER, rec.encode_json_payload(body))
        for body in V1_BODIES:
            campaign_id = body["campaign_id"]
            start = len(body["user_ids"] or [])
            wal.append(rec.USERS, rec.encode_json_payload({
                "campaign_id": campaign_id,
                "start": start,
                "user_ids": [f"{campaign_id}-u{i}" for i in range(start, 30)],
            }))
            by_slot = np.zeros(body["max_users"], dtype=np.int64)
            claims = 0
            for _ in range(5):
                users = rng.integers(0, 30, size=40)
                wal.append(rec.BATCH, rec.WorkItem(
                    campaign_id=campaign_id,
                    user_slots=users,
                    object_slots=rng.integers(0, len(OBJECTS), size=40),
                    values=rng.normal(size=40),
                ).to_bytes())
                by_slot += np.bincount(users, minlength=by_slot.size)
                claims += users.size
            counters[campaign_id] = (claims, by_slot)
        wal.append(rec.REFRESH, rec.encode_json_payload(
            {"campaign_id": "legacy-crh"}
        ))
        for i in range(3):
            wal.append(rec.CHARGE, per_charge_reference.encode_charge_payload(
                f"legacy-gtm-u{i}", 0.5, 0.0, "legacy-gtm"
            ))
        last = wal.last_lsn
    return counters, last


def assert_same(a, b, path="payload"):
    """Recursive payload equality; arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    else:
        assert type(a) is type(b) and a == b, path


class TestResumeAndPromote:
    def test_resume_and_promote_write_the_same_checkpoint(self, tmp_path):
        """Both paths append CONFIG at ``last + 1`` and checkpoint there;
        the checkpoint keeps each v1 body verbatim and the counters of
        the logged batches."""
        counters, last = write_v1_log(tmp_path / "log")
        shutil.copytree(tmp_path / "log", tmp_path / "resumed")
        shutil.copytree(tmp_path / "log", tmp_path / "standby")

        recovered = RecoveryManager(tmp_path / "resumed").recover(
            resume=True
        )
        recovered.durability.close()
        # The replayed campaign keeps its body verbatim, "auto" and all.
        state = recovered.service.campaign_state("legacy-gtm")
        assert state.spec == V1_BODIES[0]
        standby = StandbyServer(tmp_path / "standby")
        try:
            report = standby.promote()
        finally:
            standby.stop()
            standby.durability.close()
        assert report["watermark_lsn"] == last

        payloads = []
        for directory in ("resumed", "standby"):
            checkpoint = CheckpointStore(tmp_path / directory).load_latest()
            assert checkpoint.lsn == last + 1
            tail = read_wal(tmp_path / directory).records[-1]
            assert (tail.lsn, tail.rtype) == (last + 1, rec.CONFIG)
            payloads.append(checkpoint.payload)
        resumed, promoted = payloads
        assert_same(resumed, promoted)

        entries = resumed["campaigns"]
        assert [e["spec"]["campaign_id"] for e in entries] == [
            "legacy-crh", "legacy-gtm",
        ]
        bodies = {body["campaign_id"]: body for body in V1_BODIES}
        for entry in entries:
            campaign_id = entry["spec"]["campaign_id"]
            assert entry["spec"] == bodies[campaign_id]
            claims, by_slot = counters[campaign_id]
            assert entry["claims_accepted"] == claims
            assert_same(entry["claims_by_slot"], by_slot)
            assert len(entry["user_table"]) == 30
        assert entries[0]["user_table"][:2] == ["alice", "bob"]
        assert [r["user_id"] for r in resumed["ledger"]["records"]] == [
            f"legacy-gtm-u{i}" for i in range(3)
        ]

    def test_resume_checkpoints_spent_budget_without_campaigns(
        self, tmp_path
    ):
        """Budget spent by campaigns since unregistered is still state
        to bound replay with: the resumed log checkpoints it."""
        _counters, last = write_v1_log(tmp_path)
        with WriteAheadLog(tmp_path, start_lsn=last + 1) as wal:
            for body in V1_BODIES:
                wal.append(rec.UNREGISTER, rec.encode_json_payload(
                    {"campaign_id": body["campaign_id"]}
                ))
        recovered = RecoveryManager(tmp_path).recover(resume=True)
        recovered.durability.close()
        assert recovered.service.campaign_ids == []
        checkpoint = CheckpointStore(tmp_path).load_latest()
        assert checkpoint.lsn == last + 3
        assert checkpoint.payload["campaigns"] == []
        assert len(checkpoint.payload["ledger"]["records"]) == 3


def feed(service, chunks):
    for chunk in chunks:
        assert service.submit_columns(
            chunk.campaign_id, chunk.user_slots, chunk.object_slots,
            chunk.values,
        ).ok
        service.pump()


class TestLateAttach:
    def test_late_attach_recovers_bitwise_with_budget_spent(self, tmp_path):
        """Attaching to a populated volatile service checkpoints it; a
        crash after more traffic recovers the uncrashed truths bit for
        bit, and every admitted charge stays spent.  Claims buffered in
        a micro-batcher at attach time are not in the checkpoint: they
        reach the log with their batch."""
        gen = LoadGenerator(
            "late-c0", num_users=40, num_objects=12, random_state=4
        )
        # 50-claim chunks against 16-claim batches: every pump leaves
        # claims buffered, the attach included.
        chunks = list(gen.column_chunks(12 * 50, chunk_size=50))

        def fresh():
            service = IngestService(
                CONFIG, ledger=BudgetLedger(epsilon_cap=100.0)
            )
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=40,
                user_ids=gen.user_ids,
                cost=LDPGuarantee(epsilon=0.01, delta=0.0),
            )
            return service

        reference = fresh()
        feed(reference, chunks)
        reference.flush()

        crashed = fresh()
        feed(crashed, chunks[:5])
        state = crashed.campaign_state(gen.campaign_id)
        assert state.batcher.pending > 0
        manager = DurabilityManager(tmp_path)
        crashed.attach_durability(manager)
        [entry] = manager.checkpoints.load_latest().payload["campaigns"]
        assert entry["claims_accepted"] == (
            state.claims_accepted - state.batcher.pending
        )
        feed(crashed, chunks[5:])
        crashed.flush()
        spent = crashed.ledger.to_records()
        del crashed, manager, state  # the "kill", after the last sync

        recovered = RecoveryManager(tmp_path).recover().service
        ref = reference.snapshot(gen.campaign_id)
        got = recovered.snapshot(gen.campaign_id)
        assert got.truths.tobytes() == ref.truths.tobytes()
        assert got.claims_ingested == ref.claims_ingested
        assert got.weights_by_user == ref.weights_by_user
        assert recovered.ledger.to_records() == spent
        assert spent == reference.ledger.to_records()
