"""The service-topology API."""

import warnings

import pytest

from repro.durable import DurabilityConfig, DurabilityManager
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.topology import Topology


class TestFactories:
    def test_in_process_default(self):
        topo = Topology.in_process()
        assert topo.kind == "in_process"
        assert topo.durability is None

    def test_workers(self):
        topo = Topology.workers(4, start_method="fork")
        assert topo.kind == "workers"
        assert topo.processes == 4
        assert topo.start_method == "fork"

    def test_fabric(self):
        topo = Topology.fabric(2, supervise=False)
        assert topo.kind == "fabric"
        assert topo.processes == 2
        assert topo.supervise is False

    def test_replicated(self, tmp_path):
        topo = Topology.replicated(
            standbys=2,
            durability=tmp_path,
            sync="semi-sync",
            standby_dirs=[tmp_path / "a", tmp_path / "b"],
            standby_fsync="always",
            ack_timeout=5.0,
        )
        assert topo.kind == "replicated"
        assert topo.standbys == 2
        assert topo.sync == "semi-sync"
        assert topo.standby_dirs == (
            str(tmp_path / "a"),
            str(tmp_path / "b"),
        )
        assert topo.standby_fsync == "always"
        assert topo.ack_timeout == 5.0

    def test_frozen(self):
        topo = Topology.in_process()
        with pytest.raises(AttributeError):
            topo.kind = "fabric"


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            Topology(kind="cluster")

    @pytest.mark.parametrize("processes", [0, -1])
    def test_workers_need_processes(self, processes):
        with pytest.raises(ValueError, match="processes"):
            Topology.workers(processes)

    @pytest.mark.parametrize("processes", [0, -3])
    def test_fabric_needs_processes(self, processes):
        with pytest.raises(ValueError, match="processes"):
            Topology.fabric(processes)

    def test_replicated_needs_standbys(self, tmp_path):
        with pytest.raises(ValueError, match="standbys"):
            Topology.replicated(standbys=0, durability=tmp_path)

    def test_replicated_bad_sync(self, tmp_path):
        with pytest.raises(ValueError, match="sync must be one of"):
            Topology.replicated(durability=tmp_path, sync="full")

    def test_replicated_requires_durability(self):
        with pytest.raises(ValueError, match="requires durability"):
            Topology.replicated(standbys=1, durability=None)

    def test_standby_dirs_count_must_match(self, tmp_path):
        with pytest.raises(ValueError, match="standby_dirs"):
            Topology.replicated(
                standbys=2,
                durability=tmp_path,
                standby_dirs=[tmp_path / "only-one"],
            )


class TestIngestServiceTopology:
    def test_legacy_keywords_raise_type_error(self):
        """``topology=`` is the only way to say a deployment shape; a
        worker pool and a socket fabric are different kinds of it."""
        for keyword, value in (
            ("durability", None),
            ("workers", 1),
            ("hosts", 1),
            ("supervise", True),
            ("start_method", "fork"),
        ):
            with pytest.raises(TypeError, match=keyword):
                IngestService(ServiceConfig(), **{keyword: value})
        assert Topology.workers(1) != Topology.fabric(1)

    def test_default_is_in_process_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = IngestService(ServiceConfig(num_shards=2))
        try:
            assert service.topology == Topology.in_process()
            assert service.replication is None
            assert service.standbys is None
        finally:
            service.close()

    def test_topology_durability_accepts_config_and_path(self, tmp_path):
        service = IngestService(
            ServiceConfig(num_shards=2),
            topology=Topology.in_process(
                durability=DurabilityConfig(directory=tmp_path / "a")
            ),
        )
        try:
            assert service.durability is not None
            assert (tmp_path / "a").is_dir()
        finally:
            service.close()

        service = IngestService(
            ServiceConfig(num_shards=2),
            topology=Topology.in_process(durability=tmp_path / "b"),
        )
        try:
            assert service.durability is not None
            assert (tmp_path / "b").is_dir()
        finally:
            service.close()

    def test_service_built_manager_closed_with_service(self, tmp_path):
        """durability= as a path/config has no other owner — close()
        must close the manager it built; a caller-attached manager must
        survive close() for recovery."""
        service = IngestService(
            ServiceConfig(num_shards=2),
            topology=Topology.in_process(durability=tmp_path / "own"),
        )
        manager = service.durability
        service.close()
        assert manager.wal.closed

        caller_owned = DurabilityManager(
            DurabilityConfig(directory=tmp_path / "theirs")
        )
        service = IngestService(
            ServiceConfig(num_shards=2),
            topology=Topology.in_process(durability=caller_owned),
        )
        service.close()
        assert not caller_owned.wal.closed
        caller_owned.close()
