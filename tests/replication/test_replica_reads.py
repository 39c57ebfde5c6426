"""The replica read: what it serves, when it ships nothing, what it
refuses.

A read is answered from the standby's applied log without folding
anything that log did not fold; a reader whose last reply's version
still holds gets an empty reply and its cached snapshot.  A version is
the standby's nonce and the campaign's own read key, so records for
other campaigns leave it standing.  Every read must still equal the
full reply of ``full_read_reference`` at that moment.
"""

import gc
import itertools
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from full_read_reference import assert_same_read, decode, full_read
from repro.durable import DurabilityConfig, DurabilityManager
from repro.durable import records as rec
from repro.durable.recovery import RecordApplier, RecoveryManager
from repro.durable.wal import split_frames
from repro.net.transport import FrameServer, connect
from repro.replication import protocol as rp
from repro.replication.client import ReplicaError, ReplicaReadClient
from repro.replication.standby import StandbyServer
from repro.service import shard as shard_module
from repro.service.ingest import IngestService, ServiceConfig
from repro.service.loadgen import LoadGenerator
from repro.service.topology import Topology
from repro.workers import protocol as proto
from test_standby import (
    attach_sender,
    committed_frames,
    feed,
    quiesce,
    wait_shipped,
)


class FastStandby(StandbyServer):
    """A standby whose stop() does not wait out the default 0.2 s poll
    (tests here start dozens)."""

    POLL_SECONDS = 0.01


def read_raw(conn, body: dict):
    """Send one READ_REQ; ``(rtype, payload)`` of the answer."""
    conn.send_frame(rp.READ_REQ, rp.encode_json(body))
    return conn.recv_frame()


# ======================================================================
# A read folds nothing the log did not
# ======================================================================
class TestReadFoldsNothing:
    @pytest.fixture
    def replicated(self, tmp_path):
        """``(gen, chunks, service, manager, sender, standby, address)``:
        one 200 x 48 streaming campaign on a durable primary shipping
        to an in-process standby, 2048-claim chunks."""
        gen = LoadGenerator(
            "fold-c0", num_users=200, num_objects=48, random_state=5
        )
        chunks = list(gen.column_chunks(2 * 2048, chunk_size=2048))
        standby = FastStandby(tmp_path / "sb0")
        address = ("127.0.0.1", standby.start())
        manager = DurabilityManager(
            DurabilityConfig(directory=tmp_path / "wal", fsync="batch")
        )
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=2048),
            topology=Topology.in_process(durability=manager),
        )
        sender = attach_sender(manager, [address])
        try:
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=200,
                user_ids=gen.user_ids,
            )
            yield gen, chunks, service, manager, sender, standby, address
        finally:
            service.close()
            manager.close()
            standby.stop()
            if standby.durability is not None:
                standby.durability.close()

    def test_mid_stream_read_keeps_standby_bitwise_with_primary(
        self, replicated
    ):
        """A read with claims staged on a streaming campaign must not
        fold them: the primary never logged that fold, so after more
        traffic the two sides would hold different truths."""
        gen, chunks, service, manager, sender, standby, address = replicated
        feed(service, chunks[:1])
        wait_shipped(manager, sender)
        with ReplicaReadClient(address) as client:
            staged = client.snapshot(gen.campaign_id)
            assert staged.claims_ingested == 2048
            assert staged.pending_claims == 2048
            assert not staged.seen_objects.any()

            feed(service, chunks[1:])
            quiesce(service, manager, sender)
            primary = service.snapshot(gen.campaign_id)
            replica = client.snapshot(gen.campaign_id)
            sender.close()
            client.promote()
            promoted = client.snapshot(gen.campaign_id)
        folds = [
            side.campaign_state(gen.campaign_id).aggregator.refreshes
            for side in (service, standby.service)
        ]
        assert folds == [1, 1]
        assert replica.pending_claims == 0
        assert replica.truths.tobytes() == primary.truths.tobytes()
        assert (
            replica.contributor_weights.tobytes()
            == primary.contributor_weights.tobytes()
        )
        assert replica.weights_by_user == primary.weights_by_user
        assert promoted.truths.tobytes() == primary.truths.tobytes()
        assert promoted.weights_by_user == primary.weights_by_user
        assert promoted.claims_ingested == primary.claims_ingested

    def test_promoted_standby_reads_fold_like_a_primary(self, replicated):
        """Promotion changes what a read may do, not the log: the same
        client's next read must fold what the replica left staged, as
        the primary's own read does, not come back unchanged.  A read
        after it, with nothing new, is answered by the same key as
        before promotion: empty."""
        gen, chunks, service, manager, sender, standby, address = replicated
        feed(service, chunks[:1])
        wait_shipped(manager, sender)
        sender.close()
        primary = service.snapshot(gen.campaign_id)
        with ReplicaReadClient(address) as client:
            staged = client.snapshot(gen.campaign_id)
            client.promote()
            promoted = client.snapshot(gen.campaign_id)
            again = client.snapshot(gen.campaign_id)
        assert staged.pending_claims == 2048
        assert primary.pending_claims == promoted.pending_claims == 0
        assert promoted.truths.tobytes() == primary.truths.tobytes()
        assert promoted.weights_by_user == primary.weights_by_user
        assert again is promoted
        assert standby.status()["reads_unchanged"] == 1


# ======================================================================
# Property: every read equals the full reply at that moment
# ======================================================================
#: campaign -> (max users, objects, pre-registered ids).  "stream" is
#: big enough for the streaming backend, "refit" small enough for the
#: full refit, whose reads may refresh.
CAMPAIGNS = {"stream": (60, 72, 4), "refit": (12, 8, 3)}
CHUNK = 32


class ReadHarness:
    """A durable primary shipped by hand to one standby, read by two
    clients: every step the property draws is one method here."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.manager = DurabilityManager(
            DurabilityConfig(directory=root / "wal", fsync="never")
        )
        self.primary = IngestService(
            ServiceConfig(num_shards=2, max_batch=CHUNK, refine_every=3 * CHUNK),
            topology=Topology.in_process(durability=self.manager),
        )
        self.top = {}
        self.registrations = 0
        for campaign_id in CAMPAIGNS:
            self._register(campaign_id)
        self.shipped = 0
        self.reads = {"full": 0, "unchanged": 0}
        #: (client, campaign) pairs whose last reply no applied record
        #: has touched since: the next such read must be empty.
        self.quiet = set()
        self.standby = None
        self.clients = []
        self._start_standby()
        self.ship()

    def _register(self, campaign_id: str) -> None:
        # Ids name the registration, so a snapshot cached from the
        # previous one cannot pass for current.
        users, objects, named = CAMPAIGNS[campaign_id]
        self.registrations += 1
        name = f"{campaign_id}-r{self.registrations}"
        self.primary.register_campaign(
            campaign_id,
            [f"{name}-o{i}" for i in range(objects)],
            max_users=users,
            user_ids=[f"{name}-u{i}" for i in range(named)],
        )
        self.top[campaign_id] = named

    def _start_standby(self) -> None:
        self.standby = FastStandby(self.root / "sb", fsync="never")
        address = ("127.0.0.1", self.standby.start())
        self.link = connect(address, timeout=10.0)
        self.link.send_frame(
            rp.HELLO,
            rp.encode_json({"format": rp.REPLICATION_FORMAT}),
        )
        rtype, payload = self.link.recv_frame()
        assert rtype == rp.CURSOR and rp.decode_lsn(payload) == self.shipped
        # A client that outlives a standby restart keeps its cache, as a
        # reconnecting reader would: its version must not fit the new
        # process.
        self.quiet.clear()
        old = self.clients
        self.clients = [ReplicaReadClient(address) for _ in range(2)]
        for new, gone in zip(self.clients, old):
            new._cache = gone._cache
            gone.close()

    def _stop_standby(self) -> None:
        self.reads["full"] += self.standby.reads_full
        self.reads["unchanged"] += self.standby.reads_unchanged
        self.link.close()
        self.standby.stop()

    def _barrier(self) -> None:
        # STATUS takes the lock the apply step holds: once it answers,
        # the acked group is applied.
        self.clients[0].status()

    # ------------------------------------------------------------------
    def ship(self, up_to=None) -> None:
        self.manager.sync()
        durable = self.manager.durable_lsn if up_to is None else up_to
        if durable == self.shipped:
            return
        frames = committed_frames(
            self.manager.wal.directory, self.shipped, durable
        )
        self.link.send_frame(rp.RECORDS, frames)
        rtype, payload = self.link.recv_frame()
        assert rtype == rp.ACK
        self.shipped = rp.decode_lsn(payload)
        assert self.shipped == durable
        self._barrier()
        touched = {campaign_of(f.record) for f in split_frames(frames)}
        self.quiet = {pair for pair in self.quiet if pair[1] not in touched}

    def chunk(self, campaign_id: str, new_users: int, seed: int) -> None:
        self._feed(campaign_id, new_users, seed)
        self.ship()

    def split(self, campaign_id: str, new_users: int, seed: int) -> None:
        """A chunk for at least one new user whose shipped group ends
        after its USERS record, before its BATCH: the standby's table
        grows with nothing else moving.  A later step ships the rest."""
        self._feed(campaign_id, max(new_users, 1), seed)
        self.manager.sync()
        frames = committed_frames(
            self.manager.wal.directory, self.shipped, self.manager.durable_lsn
        )
        users = [f.lsn for f in split_frames(frames) if f.rtype == rec.USERS]
        self.ship(users[-1] if users else None)

    def _feed(self, campaign_id: str, new_users: int, seed: int) -> None:
        users, objects, _ = CAMPAIGNS[campaign_id]
        self.top[campaign_id] = min(self.top[campaign_id] + new_users, users)
        rng = np.random.default_rng(seed)
        self.primary.submit_columns(
            campaign_id,
            rng.integers(0, self.top[campaign_id], CHUNK),
            rng.integers(0, objects, CHUNK),
            rng.normal(size=CHUNK),
        )
        self.primary.pump()

    def flush(self) -> None:
        self.primary.flush()
        self.ship()

    def reregister(self, campaign_id: str) -> None:
        self.primary.unregister_campaign(campaign_id)
        self._register(campaign_id)
        self.ship()

    def checkpoint(self) -> None:
        self.manager.checkpoint()

    def resync(self, source=None) -> None:
        # Ship a checkpoint file's bytes as a sender's resync does: one
        # past the standby's cursor, or the standby refuses it.  When
        # the source's log has not passed the cursor, a chunk it does
        # not ship moves it there.  ``source`` is another harness whose
        # primary's checkpoint to send instead.
        source = self if source is None else source
        if source.manager.wal.last_lsn <= self.shipped:
            source._feed("refit", 0, self.shipped)
        source.checkpoint()
        lsn, data = source.manager.checkpoints.read_latest()
        self.link.send_frame(rp.CHECKPOINT, data)
        rtype, payload = self.link.recv_frame()
        assert rtype == rp.ACK
        self.shipped = rp.decode_lsn(payload)
        assert self.shipped == lsn
        self.quiet.clear()

    def restart(self) -> None:
        self._stop_standby()
        self._start_standby()

    def read(self, index: int, campaign_id: str) -> None:
        empty = self.standby.reads_unchanged
        got = self.clients[index].snapshot(campaign_id)
        assert_same_read(got, full_read(self.standby.service, campaign_id))
        if (index, campaign_id) in self.quiet:
            assert self.standby.reads_unchanged == empty + 1, (
                f"client {index} got a full reply of {campaign_id!r}, "
                f"which no record touched since its last reply"
            )
        self.quiet.add((index, campaign_id))

    def close(self) -> None:
        self._stop_standby()
        for client in self.clients:
            client.close()
        self.primary.close()
        self.manager.close()


def campaign_of(record):
    """The campaign a shipped record changes (None for CONFIG and
    CHARGE, which change none)."""
    if record.rtype in (rec.CONFIG, rec.CHARGE):
        return None
    body = record.decode()
    if record.rtype == rec.BATCH:
        return body.campaign_id
    return body["campaign_id"]


#: Step kinds, reads and chunks weighted up so most reads follow a
#: change within one incarnation (a stale version, same state object).
_KINDS = ["read"] * 5 + ["chunk"] * 4 + [
    "ship", "split", "flush", "reregister", "checkpoint", "resync", "restart",
]
#: (kind, client, campaign, new users, chunk seed); each kind uses what
#: it needs.
_steps = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.integers(0, 1),
        st.sampled_from(sorted(CAMPAIGNS)),
        st.integers(0, 9),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=30,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=_steps)
@example(
    steps=[
        ("read", 0, "stream", 0, 0),
        ("chunk", 0, "stream", 0, 1),  # same users, new LSN
        ("read", 0, "stream", 0, 0),
        ("chunk", 0, "stream", 6, 2),  # new users
        ("read", 0, "stream", 0, 0),
    ]
)
@example(
    steps=[
        ("read", 0, "stream", 0, 0),
        ("read", 1, "refit", 0, 0),
        # The group ends between a USERS record and its BATCH: the
        # table grew, and the reads before the rest is shipped are
        # still what a full reply shows.
        ("split", 0, "stream", 6, 1),
        ("read", 0, "stream", 0, 0),
        ("read", 0, "stream", 0, 0),
        # Ships the rest of "stream"'s chunk, then ends the same way.
        ("split", 0, "refit", 2, 2),
        ("read", 1, "refit", 0, 0),
        ("read", 0, "stream", 0, 0),
        ("ship", 0, "stream", 0, 0),
        ("read", 1, "refit", 0, 0),
    ]
)
@example(
    steps=[
        ("read", 0, "refit", 0, 0),
        # Same table length, new ids.
        ("reregister", 0, "refit", 0, 0),
        ("read", 0, "refit", 0, 0),
    ]
)
@example(
    steps=[
        ("read", 0, "stream", 0, 0),
        # Records for another campaign only: "stream" reads empty.
        ("chunk", 0, "refit", 3, 1),
        ("chunk", 0, "refit", 0, 2),
        ("chunk", 0, "refit", 2, 3),
        ("read", 0, "stream", 0, 0),
    ]
)
@example(
    steps=[
        # The first read refits, and its reply must name the refit
        # state, or the second read is a second full reply.
        ("chunk", 0, "refit", 0, 1),
        ("read", 0, "refit", 0, 0),
        ("read", 0, "refit", 0, 0),
    ]
)
@example(
    steps=[
        ("chunk", 0, "stream", 0, 1),
        ("checkpoint", 0, "stream", 0, 0),
        ("chunk", 0, "stream", 0, 2),
        ("resync", 0, "stream", 0, 0),  # a new state past the cursor
        ("read", 0, "stream", 0, 0),
        ("ship", 0, "stream", 0, 0),  # nothing left to ship
        ("read", 0, "stream", 0, 0),
    ]
)
def test_every_read_equals_the_full_reply(steps):
    with tempfile.TemporaryDirectory() as tmp:
        harness = ReadHarness(Path(tmp))
        try:
            for kind, client, campaign_id, new_users, seed in steps:
                if kind == "read":
                    harness.read(client, campaign_id)
                elif kind in ("chunk", "split"):
                    getattr(harness, kind)(campaign_id, new_users, seed)
                elif kind == "reregister":
                    harness.reregister(campaign_id)
                else:
                    getattr(harness, kind)()
            # Each campaign read twice by each client: the second read
            # of a pair has nothing new, whatever the steps did, and
            # must be empty.
            for campaign_id in CAMPAIGNS:
                for index in (0, 1, 0, 1):
                    harness.read(index, campaign_id)
        finally:
            harness.close()
    assert harness.reads["full"] > 0
    assert harness.reads["unchanged"] > 0


# ======================================================================
# The read path holds no campaign state
# ======================================================================
def test_a_replaced_campaign_state_is_freed(tmp_path):
    """A version names a state object by its serial, not by holding it:
    once the primary unregisters a campaign, or a checkpoint resync
    replaces the standby's service, the old state must be collectable
    even though readers cached replies of it."""
    harness = ReadHarness(tmp_path)
    try:
        harness.chunk("stream", 5, 0)
        for _ in range(2):
            harness.read(0, "stream")
            harness.read(1, "refit")
        states = harness.standby.service.campaign_state
        unregistered = weakref.ref(states("stream").aggregator)
        resynced = weakref.ref(states("refit").aggregator)
        del states
        # Neither campaign is read again: nothing may be waiting for a
        # read of the same id to let go of the old state.
        harness.primary.unregister_campaign("stream")
        harness.ship()
        gc.collect()
        assert unregistered() is None
        harness.resync()
        gc.collect()
        assert resynced() is None
    finally:
        harness.close()


def test_a_refused_read_drops_the_cached_snapshot(tmp_path):
    """A read of a campaign the standby no longer knows is refused, and
    the reader lets go of its last snapshot of it then, not when the
    connection closes."""
    harness = ReadHarness(tmp_path)
    try:
        harness.chunk("stream", 5, 0)
        harness.read(0, "stream")
        client = harness.clients[0]
        kept = weakref.ref(client._cache["stream"][1])
        harness.primary.unregister_campaign("stream")
        harness.ship()
        with pytest.raises(ReplicaError, match="unknown campaign"):
            client.snapshot("stream")
        gc.collect()
        assert kept() is None
    finally:
        harness.close()


def log_defined_read(harness, campaign_id: str):
    """What the standby's own log defines for ``campaign_id``: a full
    read of a service recovered from a copy of its directory."""
    copy = harness.root / "log-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(harness.root / "sb", copy)
    return full_read(RecoveryManager(copy).recover().service, campaign_id)


def ship_half_applied_batch(harness, monkeypatch, *, failures: int):
    """Ship one ``stream`` batch whose first ``failures`` applies change
    the campaign's claim count and then raise, short of anything that
    moves its read key."""
    applied = RecordApplier.apply
    left = [failures]

    def half_apply(applier, record):
        if record.rtype != rec.BATCH or not left[0]:
            return applied(applier, record)
        left[0] -= 1
        item = record.decode()
        state = applier.service.campaign_state(item.campaign_id)
        state.aggregator.claims_ingested += item.size
        raise RuntimeError("apply failed half-way")

    monkeypatch.setattr(RecordApplier, "apply", half_apply)
    harness._feed("stream", 0, 1)
    harness.manager.sync()
    harness.link.send_frame(rp.RECORDS, committed_frames(
        harness.manager.wal.directory, harness.shipped,
        harness.manager.durable_lsn,
    ))
    assert harness.link.recv_frame()[0] == rp.ACK  # acked, then applied
    harness.shipped = harness.manager.durable_lsn


def test_a_record_that_fails_half_way_invalidates_every_version(
    tmp_path, monkeypatch
):
    """A record whose apply raises after changing a campaign: the
    standby rebuilds from its own log, so a version handed out before it
    gets a full reply, and that reply is what the log defines."""
    harness = ReadHarness(tmp_path)
    try:
        harness.chunk("stream", 5, 0)
        harness.read(0, "stream")
        ship_half_applied_batch(harness, monkeypatch, failures=1)
        harness._barrier()
        full = harness.standby.reads_full
        got = harness.clients[0].snapshot("stream")
        assert harness.standby.reads_full == full + 1
        assert_same_read(got, log_defined_read(harness, "stream"))
        # The stream goes on from the rebuilt state.
        harness.chunk("stream", 5, 2)
        assert_same_read(
            harness.clients[0].snapshot("stream"),
            log_defined_read(harness, "stream"),
        )
    finally:
        harness.close()


def test_a_record_the_rebuild_cannot_apply_refuses_until_restart(
    tmp_path, monkeypatch
):
    """When the rebuild fails too, the live state is not the log's: the
    standby refuses reads, further records and promotion, naming the
    record, until a restart recovers it."""
    harness = ReadHarness(tmp_path)
    try:
        harness.chunk("stream", 5, 0)
        harness.read(0, "stream")
        lsn = harness.manager.durable_lsn + 1
        ship_half_applied_batch(harness, monkeypatch, failures=2)
        # The group's sender hears why before the link drops.
        rtype, payload = harness.link.recv_frame()
        assert rtype == rp.REPL_ERROR
        assert f"lsn {lsn} failed to apply" in rp.decode_json(payload)["error"]
        with pytest.raises(ReplicaError, match=f"lsn {lsn} failed to apply"):
            harness.clients[0].snapshot("stream")
        with pytest.raises(ReplicaError, match=f"lsn {lsn} failed to apply"):
            harness.clients[1].snapshot("refit")
        with pytest.raises(ReplicaError, match=f"lsn {lsn} failed to apply"):
            harness.clients[0].promote()
        harness.link = connect(harness.standby.address, timeout=10.0)
        harness.link.send_frame(
            rp.HELLO,
            rp.encode_json({"format": rp.REPLICATION_FORMAT}),
        )
        assert harness.link.recv_frame()[0] == rp.CURSOR
        harness._feed("stream", 0, 3)
        harness.manager.sync()
        harness.link.send_frame(rp.RECORDS, committed_frames(
            harness.manager.wal.directory, harness.shipped,
            harness.manager.durable_lsn,
        ))
        rtype, payload = harness.link.recv_frame()
        assert rtype == rp.REPL_ERROR
        assert f"lsn {lsn} failed to apply" in rp.decode_json(payload)["error"]
        harness.restart()
        assert_same_read(
            harness.clients[0].snapshot("stream"),
            log_defined_read(harness, "stream"),
        )
    finally:
        harness.close()


def test_two_histories_at_one_lsn_never_share_a_version(
    tmp_path, monkeypatch
):
    """Two standbys that applied different logs up to the same LSN, and
    whose states drew the same serials (as two fresh processes do): a
    reader carried from one to the other gets a full reply, and so does
    a reader of a standby resynced to the other history.  The nonce
    tells the first apart; a resync only ever moves the applied LSN
    past the cursor."""
    harnesses = []
    for name, seed in (("ours", 1), ("theirs", 2)):
        monkeypatch.setattr(
            shard_module, "_READ_SERIALS", itertools.count(1)
        )
        (tmp_path / name).mkdir()
        harnesses.append(ReadHarness(tmp_path / name))
        harnesses[-1].chunk("stream", 5, seed)
        harnesses[-1].flush()
    ours, theirs = harnesses
    try:
        assert ours.shipped == theirs.shipped
        ours.read(0, "stream")
        theirs_now = full_read(theirs.standby.service, "stream")
        assert ours.clients[0].snapshot("stream").truths.tobytes() != (
            theirs_now.truths.tobytes()
        )
        with ReplicaReadClient(theirs.standby.address) as moved:
            moved._cache = dict(ours.clients[0]._cache)
            assert_same_read(
                moved.snapshot("stream"),
                full_read(theirs.standby.service, "stream"),
            )
        lsn = ours.shipped
        ours.resync(source=theirs)
        assert ours.shipped > lsn
        ours.read(0, "stream")
    finally:
        for harness in harnesses:
            harness.close()


# ======================================================================
# Hostile READ_REQ fields
# ======================================================================
@pytest.fixture
def shipped(tmp_path):
    """A standby with three chunks of "stream" applied, and the
    ``version`` a first read of it reported:
    ``(standby, address, version)``."""
    harness = ReadHarness(tmp_path)
    try:
        for seed in range(3):
            harness.chunk("stream", 5, seed)
        address = harness.standby.address
        conn = connect(address, timeout=10.0)
        try:
            reply = proto.unpack_state(
                read_raw(conn, {"campaign_id": "stream"})[1]
            )
        finally:
            conn.close()
        yield harness.standby, address, reply["version"]
    finally:
        harness.close()


def _stale_key(version: str) -> str:
    """The version of the same state before its last batch: the nonce,
    then the read key with the aggregator's version one lower."""
    nonce, serial, aggregator_version, *counters = version.split(":")
    return ":".join(
        [nonce, serial, str(int(aggregator_version) - 1), *counters]
    )


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param(lambda v: {}, id="version-missing"),
        pytest.param(lambda v: {"version": None}, id="version-null"),
        pytest.param(lambda v: {"version": v.split(":")}, id="version-list"),
        pytest.param(lambda v: {"version": {"v": v}}, id="version-object"),
        pytest.param(lambda v: {"version": 7}, id="version-number"),
        pytest.param(lambda v: {"version": True}, id="version-bool"),
        pytest.param(lambda v: {"version": v[:-1]}, id="version-truncated"),
        pytest.param(lambda v: {"version": "x" + v[1:]}, id="version-nonce"),
        pytest.param(lambda v: {"version": _stale_key(v)}, id="version-stale"),
    ],
)
def test_hostile_read_request_gets_a_full_reply(shipped, fields):
    standby, address, version = shipped
    conn = connect(address, timeout=10.0)
    try:
        rtype, payload = read_raw(
            conn, {"campaign_id": "stream", **fields(version)}
        )
        assert rtype == rp.READ_RESP
        assert proto.unpack_state(payload)["version"] == version
        assert_same_read(decode(payload), full_read(standby.service, "stream"))
        # The connection survives the request.
        conn.send_frame(proto.PING)
        assert conn.recv_frame()[0] == proto.PONG
    finally:
        conn.close()


def test_current_version_gets_an_empty_reply(shipped):
    standby, address, version = shipped
    conn = connect(address, timeout=10.0)
    try:
        body = {"campaign_id": "stream", "version": version}
        assert read_raw(conn, body) == (rp.READ_RESP, b"")
    finally:
        conn.close()
    assert standby.status()["reads_unchanged"] == 1


@pytest.mark.parametrize("campaign_id", [None, 7, ["stream"], "nope"])
def test_unknown_or_mistyped_campaign_is_an_error_not_a_hangup(
    shipped, campaign_id
):
    _, address, version = shipped
    conn = connect(address, timeout=10.0)
    try:
        rtype, payload = read_raw(
            conn, {"campaign_id": campaign_id, "version": version}
        )
        assert rtype == rp.REPL_ERROR
        assert "unknown campaign" in rp.decode_json(payload)["error"]
        conn.send_frame(proto.PING)
        assert conn.recv_frame()[0] == proto.PONG
    finally:
        conn.close()


# ======================================================================
# Hostile READ_RESP bodies
# ======================================================================
class ScriptedStandby(FrameServer):
    """Answers each READ_REQ with the next scripted body and records
    the requests it was sent."""

    POLL_SECONDS = 0.01

    def __init__(self, replies) -> None:
        self.requests = []
        self._replies = list(replies)
        super().__init__("127.0.0.1", 0, self._on_frame)

    def _on_frame(self, conn, rtype, payload) -> bool:
        self.requests.append(rp.decode_json(payload))
        conn.send_frame(rp.READ_RESP, self._replies.pop(0))
        return True


def _reply(**fields) -> bytes:
    manifest = {
        "campaign_id": "c",
        "version": "n:1:5",
        "object_ids": ["o0", "o1"],
        "truths": np.array([1.0, 2.0]),
        "seen_objects": np.array([True, True]),
        "weight_users": ["a", "b", "c"],
        "weight_values": np.array([0.5, 1.0, 1.5]),
        "claims_ingested": 3,
        "batches_ingested": 1,
        "pending_claims": 0,
    }
    manifest.update(fields)
    return proto.pack_state(
        {k: v for k, v in manifest.items() if v is not None}
    )


GOOD = _reply()
HOSTILE = {
    "version-missing": _reply(version=None),
    "counter-missing": _reply(pending_claims=None),
    "weights-short": _reply(weight_values=np.ones(2)),
    "not-a-state-frame": b"garbage",
}


@pytest.mark.parametrize("bad", sorted(HOSTILE))
def test_hostile_read_reply_is_refused_and_drops_the_cache(bad):
    server = ScriptedStandby([GOOD, HOSTILE[bad], GOOD])
    server.start()
    try:
        with ReplicaReadClient(server.address, timeout=5.0) as client:
            first = client.snapshot("c")
            assert list(first.contributor_ids) == ["a", "b", "c"]
            with pytest.raises(ReplicaError, match="bad READ_RESP"):
                client.snapshot("c")
            # The cache is gone: the next request names no version, and
            # the connection still works.
            assert client.snapshot("c").object_ids == ("o0", "o1")
        assert server.requests[1]["version"] == "n:1:5"
        assert "version" not in server.requests[2]
    finally:
        server.stop()


def test_empty_first_reply_is_refused():
    server = ScriptedStandby([b""])
    server.start()
    try:
        with ReplicaReadClient(server.address, timeout=5.0) as client:
            with pytest.raises(ReplicaError, match="bad READ_RESP"):
                client.snapshot("c")
    finally:
        server.stop()
