"""The service-topology API."""

import subprocess
import sys
import warnings

import pytest

from repro.durable import DurabilityConfig, DurabilityManager
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.topology import Deployment, Topology


class TestFactories:
    def test_in_process_default(self):
        topo = Topology.in_process()
        assert topo.kind == "in_process"
        assert topo.durability is None

    def test_workers(self):
        """``workers(n)`` is the unsupervised fabric, nothing else: one
        launch path, no start method."""
        topo = Topology.workers(4, durability="run/wal")
        assert topo == Topology.fabric(
            4, supervise=False, durability="run/wal"
        )
        assert topo.kind == "fabric"
        assert topo.processes == 4
        assert topo.supervise is False
        assert not hasattr(topo, "start_method")
        with pytest.raises(TypeError, match="start_method"):
            Topology.workers(4, start_method="fork")

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
        worker pool is the fabric without supervision."""
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


class TestDeployment:
    def test_members_close_in_reverse_start_order_past_a_failing_one(self):
        deployment = Deployment(service=None)
        closed = []
        first = RuntimeError("watchdogs would not stand down")

        def member(name, error=None):
            def close():
                closed.append(name)
                if error is not None:
                    raise error

            return close

        deployment.own(member("manager"))
        deployment.own(member("pool", RuntimeError("pool close failed")))
        deployment.own(member("sender"))
        deployment.own(member("watchdogs", first))
        with pytest.raises(RuntimeError) as raised:
            deployment.close()
        assert raised.value is first
        assert closed == ["watchdogs", "sender", "pool", "manager"]
        deployment.close()  # idempotent: every member is already closed
        assert closed == ["watchdogs", "sender", "pool", "manager"]

    def test_failed_start_closes_the_manager_it_built(self, tmp_path):
        class RefusingService:
            config = ServiceConfig(num_shards=1)

            def attach_durability(self, manager):
                self.manager = manager
                raise RuntimeError("injected: attach refused")

        service = RefusingService()
        with pytest.raises(RuntimeError, match="attach refused"):
            Topology.in_process(durability=tmp_path / "wal").start(service)
        assert service.manager.wal.closed


#: Each sharded, durable or replicated shape imports its own stack; a
#: plain in-process service must load none of it.
IN_PROCESS_SERVICE = """
import sys
import numpy as np
from repro.crowdsensing.messages import ClaimSubmission
from repro.service import IngestService, ServiceConfig
with IngestService(ServiceConfig(num_shards=2)) as service:
    service.register_campaign("c", ["a", "b"], max_users=4)
    service.submit(ClaimSubmission("c", "u0", ("a", "b"), (1.0, 2.0)))
    service.submit_columns(
        "c", np.array([1, 2]), np.array([0, 1]), np.array([1.5, 2.5])
    )
    service.pump()
    service.snapshot("c")
loaded = {"repro.workers", "repro.net", "repro.replication", "repro.durable"}
sys.exit(", ".join(sorted(loaded & set(sys.modules))) or 0)
"""


def test_in_process_service_loads_no_deployment_stack():
    proc = subprocess.run(
        [sys.executable, "-c", IN_PROCESS_SERVICE],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
