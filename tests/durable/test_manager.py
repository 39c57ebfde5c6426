"""DurabilityManager contract: binding, cadence, spec logging."""

import numpy as np
import pytest

from repro.durable import DurabilityConfig, DurabilityManager
from repro.durable.records import RecordError
from repro.durable.wal import WalError, read_wal
from repro.service import IngestService, ServiceConfig, Topology


def chunk(campaign_id, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return (
        campaign_id,
        rng.integers(0, 8, size=n),
        rng.integers(0, 4, size=n),
        rng.normal(size=n),
    )


def make_service(tmp_path, **durability_kwargs):
    manager = DurabilityManager(
        DurabilityConfig(directory=tmp_path, **durability_kwargs)
    )
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=64),
        topology=Topology.in_process(durability=manager),
    )
    return service, manager


class TestConfigValidation:
    def test_bad_fsync(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            DurabilityConfig(directory=tmp_path, fsync="yes please")

    def test_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every_claims"):
            DurabilityConfig(directory=tmp_path, checkpoint_every_claims=-1)

    def test_path_shortcut(self, tmp_path):
        manager = DurabilityManager(tmp_path)
        assert manager.config.fsync == "batch"
        manager.close()


class TestBinding:
    def test_attach_after_register_checkpoints_campaigns(self, tmp_path):
        """A late attach checkpoints what the service already holds, at
        the CONFIG record's LSN: those campaigns have no REGISTER record
        in this log."""
        service = IngestService(ServiceConfig(num_shards=1))
        service.register_campaign("early", ["a"], max_users=2)
        manager = DurabilityManager(tmp_path)
        service.attach_durability(manager)
        assert service.durability is manager
        checkpoint = manager.checkpoints.load_latest()
        assert checkpoint.lsn == manager.last_lsn == 1
        [entry] = checkpoint.payload["campaigns"]
        assert entry["spec"] == service.campaign_state("early").spec
        assert entry["spec"]["object_ids"] == ["a"]
        manager.close()

    def test_failed_attach_leaves_the_service_volatile(self, tmp_path):
        """A bind that raises wires nothing: the shards keep running
        without a log instead of logging into an unbound manager."""
        service = IngestService(ServiceConfig(num_shards=1, max_batch=64))
        manager = DurabilityManager(tmp_path)
        manager.close()
        with pytest.raises(WalError, match="closed"):
            service.attach_durability(manager)
        assert service.durability is None
        assert all(shard.durability is None for shard in service._shards)
        service.register_campaign("c1", list(range(4)), max_users=8)
        service.submit_columns(*chunk("c1", n=100))
        assert service.pump() == 100
        snapshot = service.snapshot("c1")
        assert snapshot.claims_ingested == 100
        assert service.stats.wal_appends == 0

    def test_double_attach_is_refused(self, tmp_path):
        service, manager = make_service(tmp_path)
        other = DurabilityManager(tmp_path / "other")
        with pytest.raises(RuntimeError, match="already attached"):
            service.attach_durability(other)
        manager.close()
        other.close()

    def test_checkpoint_requires_bound_service(self, tmp_path):
        manager = DurabilityManager(tmp_path)
        with pytest.raises(RuntimeError, match="bind"):
            manager.checkpoint()
        manager.close()

    def test_bind_writes_config_record(self, tmp_path):
        _service, manager = make_service(tmp_path)
        manager.sync()
        records = read_wal(tmp_path).records
        assert records and records[0].decode()["service_config"][
            "num_shards"
        ] == 1
        manager.close()


class TestLogging:
    def test_unserialisable_method_kwargs_rejected(self, tmp_path):
        service, manager = make_service(tmp_path)
        with pytest.raises(RecordError, match="JSON-serialisable"):
            service.register_campaign(
                "c", ["a"], max_users=2, bad_kwarg=object()
            )
        # The failed registration must leave no phantom campaign behind:
        # the service holds nothing, and checkpoints keep working.
        assert service.campaign_ids == []
        path = manager.checkpoint()
        assert path.exists()
        assert manager.checkpoints.load_latest().payload["campaigns"] == []
        manager.close()

    def test_checkpoint_tracks_campaign_lifecycle(self, tmp_path):
        service, manager = make_service(tmp_path)
        service.register_campaign("c1", ["a", "b"], max_users=4)
        manager.checkpoint()
        campaigns = manager.checkpoints.load_latest().payload["campaigns"]
        assert [entry["spec"]["campaign_id"] for entry in campaigns] == ["c1"]
        service.unregister_campaign("c1")
        manager.checkpoint()
        assert manager.checkpoints.load_latest().payload["campaigns"] == []
        manager.close()

    def test_batches_counted(self, tmp_path):
        service, manager = make_service(tmp_path)
        service.register_campaign("c1", list(range(4)), max_users=8)
        service.submit_columns(*chunk("c1", n=200))
        service.pump()
        assert manager.batches_logged == 200 // 64
        assert manager.claims_logged == (200 // 64) * 64
        service.flush()  # force the partial batch out
        assert manager.claims_logged == 200
        manager.close()


class TestCheckpointCadence:
    def test_auto_checkpoint_fires_on_claim_cadence(self, tmp_path):
        service, manager = make_service(
            tmp_path, checkpoint_every_claims=128
        )
        service.register_campaign("c1", list(range(4)), max_users=8)
        for seed in range(4):
            service.submit_columns(*chunk("c1", n=64, seed=seed))
            service.pump()
        assert manager.checkpoints_written >= 1
        assert manager.checkpoints.load_latest() is not None
        manager.close()

    def test_manual_mode_never_auto_checkpoints(self, tmp_path):
        service, manager = make_service(tmp_path)
        service.register_campaign("c1", list(range(4)), max_users=8)
        service.submit_columns(*chunk("c1", n=640))
        service.flush()
        assert manager.checkpoints_written == 0
        path = manager.checkpoint()
        assert path.exists()
        manager.close()
