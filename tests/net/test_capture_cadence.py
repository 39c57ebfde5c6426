"""The capture cadence: a sweep costs a quarter of the stream.

``Supervisor.maybe_checkpoint`` re-captures a host once its journal has
grown to ``CAPTURE_EXPANSION`` (4) times the size of the capture it
would replace (and past the claim floor).  The rule's promises are
invariants, so they are pinned as properties over a stub pool — no
process, no socket: the supervisor only ever asks a handle for
``STATE_REQ`` blobs and hands it frames to replay, and the journal only
ever measures payloads.  One example pins the numbers of the
benchmark's ``fabric_rpc`` shape, and one live run through real shard
hosts checks the bound, a failover off a journal longer than one
capture (which a factor of 1 never leaves standing), and bitwise
recovery.
"""

import itertools
import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import records as rec
from repro.net.placement import PlacementMap
from repro.net.supervisor import CAPTURE_EXPANSION, HostJournal, Supervisor
from repro.service import IngestService, LoadGenerator, ServiceConfig, Topology
from repro.workers import protocol as proto

from test_fabric import assert_snapshots_bitwise_equal
from test_supervisor import kill_owner_of

FLOOR = 400
#: The documented traffic bound, captures at most a quarter of the
#: journaled stream, as a number of its own: the model follows
#: ``CAPTURE_EXPANSION``, the bound does not, so a smaller factor fails.
QUARTER = 4
HOSTS = 2
CAMPAIGNS = ("cc-a", "cc-b", "cc-c")


def batch_frame(cid: str, claims: int, size: int) -> bytes:
    """A BATCH payload by its header alone, padded to ``size`` bytes
    (the journal peeks at the claim count and never decodes columns)."""
    raw = cid.encode("utf-8")
    head = struct.pack("<H", len(raw)) + raw + b"\x00" + struct.pack(
        "<I", claims
    )
    return head + bytes(max(size - len(head), 0))


def json_frame(cid: str) -> bytes:
    return rec.encode_json_payload({"campaign_id": cid})


def load_state_frame(cid: str, size: int) -> bytes:
    return proto.pack_state(
        {"campaign_id": cid, "state": {"pad": np.zeros(size, dtype=np.uint8)}}
    )


class StubHandle:
    """What :class:`Supervisor` touches of a handle, without a process:
    it answers ``STATE_REQ`` with blobs of scripted sizes and collects
    whatever is replayed into it."""

    process = SimpleNamespace(exitcode=-9)

    def __init__(self, worker_id: int, sizes) -> None:
        self.worker_id = worker_id
        self.lost = False
        self.journal = HostJournal()
        self.rehome_targets: dict = {}
        self.sent: list[tuple[int, bytes]] = []
        self._sizes = itertools.cycle(sizes)

    def request(self, rtype: int, payload: bytes, expect: int) -> bytes:
        assert rtype == proto.STATE_REQ
        return bytes(next(self._sizes))

    def send(self, rtype: int, payload: bytes = b"") -> None:
        self.sent.append((rtype, payload))

    def expect(self, expect: int, timeout=None) -> bytes:
        return b""

    def sync(self) -> None:
        pass

    def retire(self) -> None:
        self.lost = True


class StubPool:
    config_frame = b"{}"
    ready_timeout = 1.0

    def __init__(self, handles) -> None:
        self.handles = handles
        self.placement = PlacementMap(len(handles), len(handles))
        self.spawnable = True

    def respawn(self, handle) -> None:
        if not self.spawnable:
            raise OSError("stub: the machine is gone")


class Tally:
    """The test's own books for one host, kept from the payloads it
    handed to ``record`` — independent of the journal's counters."""

    def __init__(self) -> None:
        self.bytes = 0  # journaled since the last capture
        self.claims = 0
        self.total = 0  # journaled ever
        self.captures = 0
        self.last_size = 0  # blob bytes of the capture in force
        self.replaced = 0  # blob bytes of captures an automatic one replaced

    def journaled(self, payload: bytes, claims: int = 0) -> None:
        self.bytes += len(payload)
        self.total += len(payload)
        self.claims += claims

    def captured(self, size: int) -> None:
        self.bytes = self.claims = 0
        self.captures += 1
        self.last_size = size


JOURNALLED = {
    "batch": rec.BATCH,
    "register": rec.REGISTER,
    "unregister": rec.UNREGISTER,
    "refresh": rec.REFRESH,
    "load_state": proto.LOAD_STATE,
}
#: One step: (kind, host, campaign, claims, size); a kind ignores the
#: fields it has no use for.  Weighted, and blobs kept small against
#: frames (``blob_sizes``), so that journals grow long enough for the
#: rule to fire between the events that reset them.
steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["batch"] * 12
            + ["maybe"] * 8
            + ["register", "unregister", "refresh", "load_state"]
            + ["failover", "rehome"]
        ),
        st.integers(0, HOSTS - 1),
        st.sampled_from(CAMPAIGNS),
        st.integers(0, 800),
        st.integers(0, 6000),
    ),
    min_size=40,
    max_size=150,
)
blob_sizes = st.lists(
    st.lists(
        st.integers(0, 5_000 // CAPTURE_EXPANSION), min_size=1, max_size=5
    ),
    min_size=HOSTS,
    max_size=HOSTS,
)


@settings(max_examples=100, deadline=None)
@given(steps=steps, sizes=blob_sizes)
def test_cadence_invariants_hold_after_every_step(steps, sizes):
    handles = [StubHandle(i, sizes[i]) for i in range(HOSTS)]
    pool = StubPool(handles)
    supervisor = Supervisor(
        pool, checkpoint_every_claims=FLOOR, respawn_attempts=1
    )
    tallies = [Tally() for _ in handles]

    def record(index: int, kind: str, payload: bytes, claims: int = 0):
        handles[index].journal.record(JOURNALLED[kind], payload)
        tallies[index].journaled(payload, claims)

    def adopt_forced(index: int) -> None:
        """A failover / re-home capture: both counters restart."""
        journal = handles[index].journal
        assert journal.captures == tallies[index].captures + 1
        assert journal.bytes_since_capture == 0
        assert journal.claims_since_capture == 0
        assert journal.frames == []
        tallies[index].captured(journal.captured_bytes)

    for index in range(HOSTS):
        for campaign in CAMPAIGNS:
            record(index, "register", json_frame(campaign))

    for kind, index, campaign, claims, size in steps:
        if kind == "maybe":
            supervisor.maybe_checkpoint()
            for handle, tally in zip(handles, tallies):
                if handle.lost:
                    continue
                journal = handle.journal
                due = (
                    tally.claims >= FLOOR
                    and tally.bytes >= CAPTURE_EXPANSION * tally.last_size
                )
                # Fired exactly when both conditions held ...
                assert journal.captures == tally.captures + due
                if due:
                    # ... so the stream since the capture it replaced
                    # had paid for that capture four times over.
                    tally.replaced += tally.last_size
                    tally.captured(journal.captured_bytes)
                assert (
                    journal.claims_since_capture < FLOOR
                    or journal.bytes_since_capture
                    < CAPTURE_EXPANSION * journal.captured_bytes
                )
        elif handles[index].lost:
            continue
        elif kind in ("failover", "rehome"):
            victim = handles[index]
            survivors = [
                i
                for i, h in enumerate(handles)
                if h is not victim and not h.lost
            ]
            if kind == "rehome" and not survivors:
                continue  # nowhere to go: that raises (test_supervisor)
            frames = list(victim.journal.frames)
            victim.sent.clear()
            pool.spawnable = kind == "failover"
            supervisor.failover(victim)
            assert supervisor.active
            if kind == "failover":
                # Replayed: CONFIG, the capture, then the whole journal.
                assert victim.sent[len(victim.sent) - len(frames):] == frames
                adopt_forced(index)
            else:
                assert victim.lost
                for i in survivors:
                    if handles[i].journal.captures != tallies[i].captures:
                        adopt_forced(i)
        elif kind == "batch":
            record(index, kind, batch_frame(campaign, claims, size), claims)
        elif kind == "load_state":
            record(index, kind, load_state_frame(campaign, size))
        else:
            record(index, kind, json_frame(campaign))

        for handle, tally in zip(handles, tallies):
            if handle.lost:
                continue
            journal = handle.journal
            # Only maybe_checkpoint / failover / re-home ever capture.
            assert journal.captures == tally.captures
            assert journal.bytes_since_capture == tally.bytes
            assert journal.bytes_since_capture == sum(
                len(p) for _, p in journal.frames
            )
            assert journal.claims_since_capture == tally.claims
            assert journal.captured_bytes == tally.last_size
            assert journal.captured_bytes == sum(
                len(blob) for _, blob in journal.captured.values()
            )
            assert journal.journaled_bytes_total == tally.total
            # State traffic is at most a quarter of the stream it
            # insured: every capture an automatic one replaced was
            # covered four times by the bytes journaled in between.
            assert QUARTER * tally.replaced <= tally.total

    stats = supervisor.stats()
    live = [h.journal for h in handles if not h.lost]
    assert stats["journal_bytes"] == sum(j.bytes_since_capture for j in live)
    assert stats["captured_bytes"] == sum(j.captured_bytes for j in live)
    assert stats["captures"] == sum(h.journal.captures for h in handles)
    assert stats["capture_bytes_total"] == sum(
        h.journal.capture_bytes_total for h in handles
    )


def test_fabric_rpc_shape_captures_every_300_frames_not_75():
    """The benchmark workload's numbers: eight campaigns of 230 050 B
    of state behind 24 589-byte frames of 2 048 claims.  The claim
    floor alone (50 000) would sweep every 25 frames; a sweep moves
    8 x 230 050 = 1 840 400 B, which 75 frames journal, and four
    sweeps' worth (7 361 600 B) takes 300."""
    handle = StubHandle(0, [230_050])
    supervisor = Supervisor(StubPool([handle]))
    journal = handle.journal
    for c in range(8):
        journal.record(
            rec.REGISTER,
            rec.encode_json_payload({"campaign_id": f"fab-c{c}"}),
        )
    frame = batch_frame("fab-c0", 2048, 24_589)
    assert len(frame) == 24_589
    captured_at = []
    for n in range(1, 1230):
        journal.record(rec.BATCH, frame)
        captures = journal.captures
        supervisor.maybe_checkpoint()
        if journal.captures != captures:
            captured_at.append(n)
    # The first capture has nothing to replace: the floor decides.
    assert captured_at == [25, 325, 625, 925, 1225]
    assert journal.captured_bytes == 8 * 230_050
    stats = supervisor.stats()
    assert stats["capture_bytes_total"] == 5 * 8 * 230_050
    assert (
        QUARTER * (stats["capture_bytes_total"] - stats["captured_bytes"])
        <= stats["journaled_bytes_total"]
    )


def test_live_cadence_bounds_capture_traffic_and_recovers_bitwise():
    """Real shard hosts at a 400-claim floor: states of ~100 KB make
    the byte rule the binding one, so a host is killed with a journal
    several floors and more than one capture long, yet short of four
    captures — and still recovers bit for bit."""
    generators = [
        LoadGenerator(
            f"cad-c{c}", num_users=150, num_objects=40, random_state=50 + c
        )
        for c in range(4)
    ]
    per_campaign = [
        list(gen.column_chunks(144_000, chunk_size=500))
        for gen in generators
    ]
    chunks = [c for group in zip(*per_campaign) for c in group]

    def run(service, midstream=None):
        for gen in generators:
            service.register_campaign(
                gen.campaign_id,
                gen.object_ids,
                max_users=gen.num_users,
                user_ids=gen.user_ids,
            )
        for i, chunk in enumerate(chunks):
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            if i % 4 == 3:
                service.pump()
                if midstream is not None and midstream(service):
                    midstream = None
        service.flush()
        assert midstream is None
        return {
            gen.campaign_id: service.snapshot(gen.campaign_id)
            for gen in generators
        }

    with IngestService(ServiceConfig(num_shards=4, max_batch=512)) as plain:
        expected = run(plain)

    killed = {}

    def kill_on_a_long_journal(service):
        """Right after a pump's ``maybe_checkpoint``: a journal past
        the floor here is one the byte rule chose not to capture."""
        victim = service.worker_pool.handle_for(
            service.shard_of("cad-c0")
        )
        journal = victim.journal
        if (
            journal.captures < 2
            or journal.claims_since_capture < 3 * FLOOR
            or journal.bytes_since_capture < journal.captured_bytes
        ):
            return False
        assert (
            journal.bytes_since_capture
            < CAPTURE_EXPANSION * journal.captured_bytes
        )
        killed["claims"] = journal.claims_since_capture
        killed["in_force"] = journal.captured_bytes
        kill_owner_of(service, "cad-c0")
        return True

    with IngestService(
        ServiceConfig(num_shards=4, max_batch=512),
        topology=Topology.fabric(2),
    ) as service:
        supervisor = service.worker_pool.supervisor
        supervisor.checkpoint_every_claims = FLOOR
        got = run(service, kill_on_a_long_journal)
        stats = supervisor.stats()
        journals = [h.journal for h in service.worker_pool.handles]
        metrics = service.metrics_snapshot()

    assert killed["claims"] >= 3 * FLOOR
    assert stats["restarts"] == 1
    assert all(j.captures >= 3 for j in journals)
    # Every capture is paid for four times by the stream that follows
    # it, so the only ones a quarter of the journaled bytes does not
    # cover are those still in force and the one the failover replaced
    # early.
    assert QUARTER * (
        stats["capture_bytes_total"]
        - stats["captured_bytes"]
        - killed["in_force"]
    ) <= stats["journaled_bytes_total"]
    assert stats["journal_bytes"] == sum(
        j.bytes_since_capture for j in journals
    )
    assert metrics.value("repro_fabric_captures_total") == stats["captures"]
    assert (
        metrics.value("repro_fabric_capture_bytes_total")
        == stats["capture_bytes_total"]
    )
    assert metrics.value("repro_fabric_journal_bytes") == stats["journal_bytes"]
    assert_snapshots_bitwise_equal(expected, got)
