"""Automated failover: status server, heartbeats, election, promotion.

Everything runs in-process (:meth:`StandbyServer.start` and
:meth:`FailoverWatchdog.start` both serve on threads), so the full
self-healing loop — heartbeat, miss accounting, election over STATUS
frames, ``PROMOTE`` — is exercised without subprocesses.  The
subprocess flavour (``launch_watchdog`` + the drill harness) is
covered by ``benchmarks/chaos_drill.py --smoke`` in CI.
"""

import sys
import threading
import time

import pytest

from repro.durable import DurabilityConfig, DurabilityManager
from repro.net.transport import SocketListener, call
from repro.replication.client import (
    FailoverReadClient,
    ReplicaError,
    ReplicaReadClient,
)
from repro.replication.sender import ReplicationSender
from repro.replication.standby import StandbyServer
from repro.replication.watchdog import (
    FailoverWatchdog,
    PrimaryStatusServer,
    WatchdogError,
    allocate_peer_ports,
    format_address,
    parse_address,
)
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.loadgen import LoadGenerator
from repro.service.topology import Topology
from repro.workers import protocol as proto

CHUNK = 128
NUM_USERS = 40
NUM_OBJECTS = 12


def make_traffic(total_chunks=8, seed=11):
    gen = LoadGenerator(
        "wd-c0",
        num_users=NUM_USERS,
        num_objects=NUM_OBJECTS,
        random_state=seed,
    )
    chunks = list(
        gen.column_chunks(total_chunks * CHUNK, chunk_size=CHUNK)
    )
    return gen, chunks


def primary_service(tmp_path):
    manager = DurabilityManager(
        DurabilityConfig(directory=tmp_path / "wal", fsync="batch")
    )
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=CHUNK),
        topology=Topology.in_process(durability=manager),
    )
    return service, manager


def feed(service, gen, chunks):
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=NUM_USERS,
        user_ids=gen.user_ids,
    )
    for chunk in chunks:
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        service.pump()


def quiesce(service, manager, sender, *, timeout=60.0):
    service.flush()
    manager.sync()
    watermark = manager.wal.durable_lsn
    deadline = time.monotonic() + timeout
    # Asking ships the links' held groups now, not after a hold.
    sender.wait_replicated(watermark, timeout=timeout)
    while sender.min_ack_lsn() < watermark:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return watermark


# -------------------------------------------------------- status server
class TestPrimaryStatusServer:
    def test_answers_ping_and_status(self, tmp_path):
        service, manager = primary_service(tmp_path)
        server = PrimaryStatusServer(manager)
        server.start()
        try:
            watchdog = FailoverWatchdog(
                server.address, [("127.0.0.1", 1)], probe_timeout=2.0
            )
            assert watchdog.probe() is True
            assert server.probes_answered == 1

            gen, chunks = make_traffic(total_chunks=2)
            feed(service, gen, chunks)
            service.flush()
            manager.sync()
            with ReplicaReadClient(server.address) as client:
                status = client.status()
            assert status["role"] == "primary"
            assert status["durable_lsn"] == manager.wal.durable_lsn
            assert status["last_lsn"] == manager.wal.last_lsn
        finally:
            server.stop()
            service.close()

    def test_probe_false_once_stopped(self, tmp_path):
        _service, manager = primary_service(tmp_path)
        server = PrimaryStatusServer(manager)
        server.start()
        watchdog = FailoverWatchdog(
            server.address, [("127.0.0.1", 1)], probe_timeout=0.5
        )
        assert watchdog.probe() is True
        server.stop()
        assert watchdog.probe() is False
        _service.close()


    def test_concurrent_probes_are_all_counted(self):
        """Connections are served on their own threads, so the probe
        counter is bumped concurrently: none may be lost."""
        server = PrimaryStatusServer(manager=None)
        server.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def probe_many():
                for _ in range(50):
                    assert call(
                        server.address, proto.PING, timeout=10.0
                    ) == (proto.PONG, b"")

            threads = [
                threading.Thread(target=probe_many) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
            assert server.probes_answered == 8 * 50
        finally:
            sys.setswitchinterval(interval)
            server.stop()

    def test_probe_of_a_dead_primary_answers_at_once(self):
        """To a prober a refused dial is the answer: no redialling a
        corpse until ``probe_timeout`` runs out."""
        with SocketListener() as listener:
            closed_port = listener.address
        watchdog = FailoverWatchdog(
            closed_port, [("127.0.0.1", 1)], probe_timeout=1.0
        )
        start = time.monotonic()
        assert watchdog.probe() is False
        assert time.monotonic() - start < 0.1


# ------------------------------------------------------------- election
class TestElection:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one standby"):
            FailoverWatchdog(("127.0.0.1", 1), [])
        with pytest.raises(ValueError):
            FailoverWatchdog(
                ("127.0.0.1", 1), [("127.0.0.1", 2)], misses=0
            )

    def test_elects_freshest_standby(self, tmp_path):
        lagging = StandbyServer(tmp_path / "sb0")
        fresh = StandbyServer(tmp_path / "sb1")
        addresses = [
            ("127.0.0.1", lagging.start()),
            ("127.0.0.1", fresh.start()),
        ]
        service, manager = primary_service(tmp_path)
        # Ship everything to standby 1 only: it must win the election
        # despite its higher index.
        sender = ReplicationSender([addresses[1]])
        manager.attach_replication(sender)
        try:
            gen, chunks = make_traffic(total_chunks=4)
            feed(service, gen, chunks)
            watermark = quiesce(service, manager, sender)
            watchdog = FailoverWatchdog(
                ("127.0.0.1", 1), addresses, probe_timeout=2.0
            )
            index, address, lsn = watchdog.elect()
            assert index == 1
            assert address == addresses[1]
            assert lsn == watermark
        finally:
            service.close()
            manager.close()
            lagging.stop()
            fresh.stop()

    def test_watermark_tie_breaks_to_lowest_index(self, tmp_path):
        first = StandbyServer(tmp_path / "sb0")
        second = StandbyServer(tmp_path / "sb1")
        addresses = [
            ("127.0.0.1", first.start()),
            ("127.0.0.1", second.start()),
        ]
        try:
            watchdog = FailoverWatchdog(
                ("127.0.0.1", 1), addresses, probe_timeout=2.0
            )
            index, _address, lsn = watchdog.elect()
            assert index == 0  # both at lsn 0: deterministic tie-break
            assert lsn == 0
        finally:
            first.stop()
            second.stop()

    def test_unreachable_standbys_are_skipped(self, tmp_path):
        live = StandbyServer(tmp_path / "sb0")
        addresses = [
            ("127.0.0.1", 1),  # nothing listens here
            ("127.0.0.1", live.start()),
        ]
        try:
            watchdog = FailoverWatchdog(
                ("127.0.0.1", 1), addresses, probe_timeout=1.0
            )
            index, _address, _lsn = watchdog.elect()
            assert index == 1
        finally:
            live.stop()

    def test_mute_standby_does_not_hang_the_election(self, tmp_path):
        """A standby that accepts and never answers (wedged, SIGSTOPped)
        costs an election ``probe_timeout``, not for ever — and the
        healthy standby is still elected."""
        live = StandbyServer(tmp_path / "sb1")
        with SocketListener() as mute:  # listens, never reads
            addresses = [mute.address, ("127.0.0.1", live.start())]
            try:
                watchdog = FailoverWatchdog(
                    ("127.0.0.1", 1), addresses, probe_timeout=0.5
                )
                start = time.monotonic()
                index, address, _lsn = watchdog.elect()
                assert time.monotonic() - start < 0.5 + 1.0
                assert (index, address) == (1, addresses[1])

                client = ReplicaReadClient(mute.address, timeout=1.0)
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.status()
                assert time.monotonic() - start < 1.0 + 1.0
                client.close()
            finally:
                live.stop()

    def test_no_reachable_standby_raises(self):
        watchdog = FailoverWatchdog(
            ("127.0.0.1", 1),
            [("127.0.0.1", 1), ("127.0.0.1", 2)],
            probe_timeout=0.3,
        )
        with pytest.raises(WatchdogError, match="no standby reachable"):
            watchdog.elect()


# ----------------------------------------------------- failover, end to end
class TestAutomatedFailover:
    def test_detects_death_and_promotes(self, tmp_path):
        standby0 = StandbyServer(tmp_path / "sb0")
        standby1 = StandbyServer(tmp_path / "sb1")
        addresses = [
            ("127.0.0.1", standby0.start()),
            ("127.0.0.1", standby1.start()),
        ]
        service, manager = primary_service(tmp_path)
        sender = ReplicationSender(addresses)
        manager.attach_replication(sender)
        status_server = PrimaryStatusServer(manager)
        status_server.start()
        armed = []
        watchdog = FailoverWatchdog(
            status_server.address,
            addresses,
            interval=0.1,
            misses=2,
            probe_timeout=1.0,
            on_armed=lambda: armed.append(True),
        )
        watchdog.start()
        try:
            gen, chunks = make_traffic(total_chunks=4)
            feed(service, gen, chunks)
            watermark = quiesce(service, manager, sender)
            primary_snap = service.snapshot(gen.campaign_id)

            deadline = time.monotonic() + 10.0
            while not watchdog.armed:
                assert time.monotonic() < deadline, "never armed"
                time.sleep(0.01)
            assert armed == [True]

            # "Die": the status listener goes away, heartbeats start
            # missing, and nobody on this side promotes anything.
            status_server.stop()
            deadline = time.monotonic() + 15.0
            while watchdog.result is None:
                assert time.monotonic() < deadline, "never promoted"
                time.sleep(0.05)

            result = watchdog.result
            assert result["watermark_lsn"] == watermark
            assert result["detection_seconds"] is not None
            assert result["promotion_seconds"] > 0.0
            stats = watchdog.stats()
            assert stats["auto_promotions"] == 1
            assert stats["elections"] == 1
            assert stats["heartbeat_misses"] >= 2

            promoted = addresses[result["promoted_index"]]
            with ReplicaReadClient(promoted) as client:
                assert client.status()["promoted"] is True
                replica_snap = client.snapshot(gen.campaign_id)
            assert (
                replica_snap.truths.tobytes()
                == primary_snap.truths.tobytes()
            )
        finally:
            watchdog.stop()
            status_server.stop()
            service.close()
            manager.close()
            standby0.stop()
            standby1.stop()

    def test_stop_while_healthy_returns_none(self, tmp_path):
        _service, manager = primary_service(tmp_path)
        status_server = PrimaryStatusServer(manager)
        status_server.start()
        watchdog = FailoverWatchdog(
            status_server.address,
            [("127.0.0.1", 1)],
            interval=0.05,
            misses=2,
        )
        watchdog.start()
        try:
            deadline = time.monotonic() + 10.0
            while not watchdog.armed:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            watchdog.stop()
            assert watchdog.result is None
            assert watchdog.stats()["auto_promotions"] == 0
        finally:
            watchdog.stop()
            status_server.stop()
            _service.close()


# ---------------------------------------------------- quorum-fenced fleet
class TestQuorumFencedFailover:
    """ISSUE-10 tentpole (b): N watchdogs vote before any promotion,
    and the winning fencing epoch makes a second promotion impossible
    fleet-wide — asserted here with the whole fleet in-process."""

    def test_vote_grant_is_single_and_leased(self, tmp_path):
        # Primary address points at nothing: every probe fails, so the
        # peer's own view agrees the primary is dead.
        watchdog = FailoverWatchdog(
            ("127.0.0.1", 1),
            [("127.0.0.1", 2)],
            probe_timeout=0.2,
            peer_port=0,
        )
        peer = watchdog.peer_server
        try:
            assert peer._vote({"epoch": 1, "requester": 1})["granted"]
            # A second candidate is refused while the lease is live...
            denied = peer._vote({"epoch": 1, "requester": 2})
            assert not denied["granted"]
            assert "leased to watchdog 1" in denied["reason"]
            # ...but the grantee itself may re-ask at a higher epoch.
            assert peer._vote({"epoch": 2, "requester": 1})["granted"]
            # Once a promotion is observed, every vote is refused and
            # the verdict says why, so the asker stands down too.
            peer.observe_promotion({"promoted_index": 0})
            verdict = peer._vote({"epoch": 3, "requester": 1})
            assert not verdict["granted"]
            assert verdict["promoted"] is True
            assert peer.votes_granted == 2
            assert peer.votes_denied == 2
        finally:
            watchdog.stop()

    def test_vote_denied_while_primary_alive(self, tmp_path):
        _service, manager = primary_service(tmp_path)
        status_server = PrimaryStatusServer(manager)
        status_server.start()
        watchdog = FailoverWatchdog(
            status_server.address,
            [("127.0.0.1", 2)],
            probe_timeout=1.0,
            peer_port=0,
        )
        try:
            verdict = watchdog.peer_server._vote(
                {"epoch": 1, "requester": 1}
            )
            assert not verdict["granted"]
            assert "alive" in verdict["reason"]
        finally:
            watchdog.stop()
            status_server.stop()
            _service.close()

    def test_empty_elections_are_bounded_and_counted(self):
        watchdog = FailoverWatchdog(
            ("127.0.0.1", 1),
            [("127.0.0.1", 1), ("127.0.0.1", 2)],
            probe_timeout=0.2,
            election_attempts=2,
        )
        with pytest.raises(WatchdogError, match="no standby reachable"):
            watchdog.failover()
        stats = watchdog.stats()
        assert stats["failed_elections"] == 2
        assert stats["elections"] == 2
        assert stats["auto_promotions"] == 0

    def test_fleet_promotes_exactly_once_and_fences(self, tmp_path):
        standby0 = StandbyServer(tmp_path / "sb0")
        standby1 = StandbyServer(tmp_path / "sb1")
        addresses = [
            ("127.0.0.1", standby0.start()),
            ("127.0.0.1", standby1.start()),
        ]
        service, manager = primary_service(tmp_path)
        sender = ReplicationSender(addresses)
        manager.attach_replication(sender)
        status_server = PrimaryStatusServer(manager)
        status_server.start()
        ports = allocate_peer_ports(3)
        fleet = [
            FailoverWatchdog(
                status_server.address,
                addresses,
                interval=0.1,
                misses=2,
                probe_timeout=1.0,
                index=i,
                peer_port=ports[i],
                peers=[
                    ("127.0.0.1", p)
                    for j, p in enumerate(ports)
                    if j != i
                ],
            )
            for i in range(3)
        ]
        try:
            gen, chunks = make_traffic(total_chunks=4)
            feed(service, gen, chunks)
            watermark = quiesce(service, manager, sender)
            for watchdog in fleet:
                watchdog.start()
            deadline = time.monotonic() + 10.0
            while not all(w.armed for w in fleet):
                assert time.monotonic() < deadline, "fleet never armed"
                time.sleep(0.01)

            # Kill the primary's liveness surface: all three detect the
            # death near-simultaneously and race for the quorum.
            status_server.stop()
            deadline = time.monotonic() + 30.0
            while any(w.result is None for w in fleet):
                assert time.monotonic() < deadline, "fleet never settled"
                time.sleep(0.05)

            promotions = sum(
                w.stats()["auto_promotions"] for w in fleet
            )
            assert promotions == 1
            winners = [w for w in fleet if w.stats()["auto_promotions"]]
            losers = [w for w in fleet if not w.stats()["auto_promotions"]]
            result = winners[0].result
            assert result["fencing_epoch"] == 1
            assert result["watermark_lsn"] == watermark
            for loser in losers:
                assert loser.result["observed"] is True

            # The fence holds on EVERY standby — the promoted one and
            # the survivor whose fence the winner's broadcast advanced.
            for address in addresses:
                with ReplicaReadClient(address) as client:
                    assert client.status()["fencing_epoch"] == 1
                    with pytest.raises(
                        ReplicaError, match="stale fencing epoch 1"
                    ):
                        client.promote(epoch=1)
        finally:
            for watchdog in fleet:
                watchdog.stop()
            status_server.stop()
            service.close()
            manager.close()
            standby0.stop()
            standby1.stop()


# ------------------------------------------------------ failover client
class TestFailoverReadClient:
    def test_repoints_past_dead_standbys(self, tmp_path):
        live = StandbyServer(tmp_path / "sb0")
        port = live.start()
        addresses = [("127.0.0.1", 1), ("127.0.0.1", port)]
        try:
            with FailoverReadClient(addresses, timeout=1.0) as client:
                assert client.ping() is True
                assert client.repoints == 1
                assert client.current_address == addresses[1]
                # Subsequent calls stay on the live standby.
                assert client.status()["promoted"] is False
                assert client.repoints == 1
        finally:
            live.stop()

    def test_all_dead_raises_replica_error(self):
        with FailoverReadClient(
            [("127.0.0.1", 1), ("127.0.0.1", 2)], timeout=0.3
        ) as client:
            # ping() is the liveness query: exhaustion reads as False.
            assert client.ping() is False
            with pytest.raises(ReplicaError, match="no standby reachable"):
                client.status()

    def test_every_standby_dead_raises_promptly(self):
        """ISSUE-10 satellite: total standby loss is a bounded, prompt
        error — one dial per address, no retry loop, no hang."""
        addresses = [
            ("127.0.0.1", 1),
            ("127.0.0.1", 2),
            ("127.0.0.1", 3),
        ]
        with FailoverReadClient(addresses, timeout=0.3) as client:
            start = time.monotonic()
            with pytest.raises(
                ReplicaError, match="no standby reachable"
            ):
                client.snapshot("any-campaign")
            elapsed = time.monotonic() - start
            # Worst case is one timeout per address; anything beyond
            # that would mean the walk looped back over dead standbys.
            assert elapsed < len(addresses) * 0.3 + 1.0

    def test_application_errors_propagate(self, tmp_path):
        live = StandbyServer(tmp_path / "sb0")
        port = live.start()
        try:
            with FailoverReadClient(
                [("127.0.0.1", port)], timeout=2.0
            ) as client:
                # The standby answered and refused: that is not a
                # connectivity problem, so no re-point happens.
                with pytest.raises(ReplicaError, match="unknown"):
                    client.snapshot("no-such-campaign")
                assert client.repoints == 0
        finally:
            live.stop()


# ------------------------------------------------------------ addresses
def test_address_round_trip():
    assert parse_address("127.0.0.1:9001") == ("127.0.0.1", 9001)
    assert format_address(("127.0.0.1", 9001)) == "127.0.0.1:9001"
    with pytest.raises(ValueError):
        parse_address("9001")
