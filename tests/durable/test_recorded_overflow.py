"""Directories written while ``ServiceConfig`` still had an ``overflow``
policy (``"reject"`` or ``"drop_oldest"``) store that key in the CONFIG
record and in every checkpoint's ``service_config``.  They must still
recover bitwise, through the checkpoint and through the CONFIG record
alone, and a standby must still rebuild from them.  Replay is the same
under either old policy: only claims that reached a batcher were ever
logged."""

import dataclasses
import shutil

import pytest

from repro.durable import (
    CheckpointStore,
    DurabilityConfig,
    RecoveryManager,
)
from repro.durable import records as rec
from repro.durable.wal import read_wal
from repro.privacy.ldp import LDPGuarantee
from repro.replication.client import ReplicaReadClient
from repro.replication.standby import StandbyServer
from repro.service import IngestService, ServiceConfig, Topology
from repro.service.ledger import BudgetLedger
from repro.service.loadgen import LoadGenerator

CHUNK = 128
NUM_USERS = 40


def asdict_with_overflow(policy):
    """``dataclasses.asdict`` as it read a ``ServiceConfig`` that had an
    ``overflow`` field: the key after ``queue_capacity``."""
    real = dataclasses.asdict

    def asdict(obj, **kwargs):
        out = real(obj, **kwargs)
        if isinstance(obj, ServiceConfig):
            items = list(out.items())
            at = list(out).index("queue_capacity") + 1
            out = dict(items[:at] + [("overflow", policy)] + items[at:])
        return out

    return asdict


@pytest.fixture(params=["drop_oldest", "reject"])
def old_directory(request, tmp_path, monkeypatch):
    """``(directory, campaign id, final snapshot, ledger records)`` of a
    primary that wrote ``"overflow"`` into its CONFIG record and a
    checkpoint, then logged more after the checkpoint."""
    policy = request.param
    directory = tmp_path / "old"
    gen = LoadGenerator(
        "old-c0", num_users=NUM_USERS, num_objects=12, random_state=9
    )
    chunks = list(gen.column_chunks(12 * CHUNK, chunk_size=CHUNK))
    with monkeypatch.context() as patch:
        patch.setattr(dataclasses, "asdict", asdict_with_overflow(policy))
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=CHUNK),
            ledger=BudgetLedger(epsilon_cap=1e6),
            topology=Topology.in_process(
                durability=DurabilityConfig(directory=directory)
            ),
        )
        service.register_campaign(
            gen.campaign_id, gen.object_ids, max_users=NUM_USERS,
            user_ids=gen.user_ids, cost=LDPGuarantee(epsilon=0.1, delta=0.0),
        )
        for i, chunk in enumerate(chunks):
            if i == len(chunks) // 2:
                service.durability.checkpoint()
            service.submit_columns(
                chunk.campaign_id, chunk.user_slots, chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        snapshot = service.snapshot(gen.campaign_id)
        ledger = service.ledger.to_records()
        service.close()
    config = [r for r in read_wal(directory).records if r.rtype == rec.CONFIG]
    assert config[0].decode()["service_config"]["overflow"] == policy
    checkpoint = CheckpointStore(directory).load_latest()
    assert checkpoint.payload["service_config"]["overflow"] == policy
    return directory, gen.campaign_id, snapshot, ledger


def copy_of(directory, target, *, checkpoints: bool):
    """A copy of ``directory``, without its checkpoints unless asked,
    so recovery starts from the CONFIG record."""
    shutil.copytree(directory, target)
    if not checkpoints:
        for path in CheckpointStore(target).paths():
            path.unlink()
    return target


def assert_same(got, want):
    assert got.truths.tobytes() == want.truths.tobytes()
    assert got.contributor_weights.tobytes() == want.contributor_weights.tobytes()
    assert list(got.contributor_ids) == list(want.contributor_ids)
    assert got.claims_ingested == want.claims_ingested
    assert got.batches_ingested == want.batches_ingested


@pytest.mark.parametrize("checkpoints", [True, False], ids=["checkpoint", "log"])
def test_recovers_bitwise(old_directory, tmp_path, checkpoints):
    directory, campaign_id, snapshot, ledger = old_directory
    target = copy_of(directory, tmp_path / "copy", checkpoints=checkpoints)
    recovered = RecoveryManager(target).recover()
    service = recovered.service
    assert (recovered.report.checkpoint_lsn > 0) == checkpoints
    assert service.config == ServiceConfig(num_shards=2, max_batch=CHUNK)
    assert_same(service.snapshot(campaign_id), snapshot)
    assert service.ledger.to_records() == ledger
    service.close()


@pytest.mark.parametrize("checkpoints", [True, False], ids=["checkpoint", "log"])
def test_a_standby_rebuilds_from_it(old_directory, tmp_path, checkpoints):
    directory, campaign_id, snapshot, _ledger = old_directory
    target = copy_of(directory, tmp_path / "sb", checkpoints=checkpoints)
    standby = StandbyServer(target, fsync="never")
    address = ("127.0.0.1", standby.start())
    try:
        with ReplicaReadClient(address) as client:
            assert_same(client.snapshot(campaign_id), snapshot)
    finally:
        standby.stop()
