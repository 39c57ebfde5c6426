"""The host journal replays the host's own bytes.

A ``STATE_RESP`` body *is* a ``LOAD_STATE`` payload, so the supervisor
keeps captures as the blobs the host sent and replays them verbatim:
(a) that replay is bitwise for every backend, staged-but-unfolded
claims included; (b) capture, failover and re-home never decode a state
on the parent.
"""

import json

import numpy as np
import pytest

from repro.chaos import DEFAULT_RATES, FaultPlan, install, uninstall
from repro.durable import records as rec
from repro.service import IngestService, ServiceConfig, Topology
from repro.workers import protocol as proto
from repro.workers.worker import ShardRuntime

from test_fabric import assert_snapshots_bitwise_equal
from test_supervisor import kill_owner_of

CONFIG = {"refine_every": 500, "refine_sweeps": 2, "obs": False}


def make_runtime(spec):
    runtime = ShardRuntime(0, (0, 1))
    sent = []
    frames = [
        (rec.CONFIG, rec.encode_json_payload(CONFIG)),
        (rec.REGISTER, rec.encode_json_payload(spec)),
    ]
    for rtype, payload in frames:
        runtime.on_frame(rtype, payload, lambda *frame: sent.append(frame))
    return runtime


def state_resp(runtime, campaign_id):
    sent = []
    runtime.on_frame(
        proto.STATE_REQ,
        rec.encode_json_payload({"campaign_id": campaign_id}),
        lambda *frame: sent.append(frame),
    )
    ((rtype, body),) = sent
    assert rtype == proto.STATE_RESP
    return body


def leaves(obj, path="state"):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    elif isinstance(obj, np.ndarray):
        yield path, (obj.dtype.str, obj.shape, obj.tobytes())
    else:
        yield path, obj


@pytest.mark.parametrize("method", ["crh", "gtm", "catd"])
@pytest.mark.parametrize("backend", ["streaming", "full"])
def test_state_resp_replayed_verbatim_is_bitwise(backend, method):
    spec = {
        "campaign_id": "c1",
        "num_users": 12,
        "num_objects": 6,
        "aggregator": backend,
        "method": method,
    }
    source = make_runtime(spec)
    rng = np.random.default_rng(7)
    # refine_every=500: the second batch triggers the automatic fold,
    # the third stays staged-but-unfolded in the captured state.
    for size in (300, 300, 100):
        item = rec.WorkItem(
            "c1",
            rng.integers(0, 12, size),
            rng.integers(0, 6, size),
            rng.normal(size=size),
        )
        source.on_frame(rec.BATCH, item.to_bytes(), None)
    blob = state_resp(source, "c1")
    state = proto.unpack_state(blob)["state"]
    assert state["kind"] == backend
    if backend == "streaming":
        assert np.asarray(state["staged_users"]).size == 100

    replica = make_runtime(spec)
    replica.on_frame(proto.LOAD_STATE, blob, None)
    echoed = state_resp(replica, "c1")
    assert dict(leaves(proto.unpack_state(echoed))) == dict(
        leaves(proto.unpack_state(blob))
    )
    assert echoed == blob


def stream(service, chunks, start, stop):
    for i in range(start, stop):
        cid, users, objects, values = chunks[i]
        service.submit_columns(cid, users, objects, values)
        if i % 3 == 2:
            service.pump()
    service.flush()


def test_capture_failover_and_rehome_never_decode_on_the_parent(monkeypatch):
    campaigns = [f"jr-c{i}" for i in range(4)]
    rng = np.random.default_rng(11)
    chunks = [
        (
            campaigns[i % 4],
            rng.integers(0, 20, 200),
            rng.integers(0, 10, 200),
            rng.normal(size=200),
        )
        for i in range(48)
    ]

    def run(service, script):
        for cid in campaigns:
            service.register_campaign(
                cid, [f"o{i}" for i in range(10)], max_users=20
            )
        script(service)
        return {cid: service.snapshot(cid) for cid in campaigns}

    def uneventful(service):
        for start in (0, 16, 32):  # the eventful script's flush points
            stream(service, chunks, start, start + 16)

    with IngestService(ServiceConfig(num_shards=4, max_batch=256)) as plain:
        expected = run(plain, uneventful)

    decodes = []
    real_unpack = proto.unpack_state
    monkeypatch.setattr(
        proto,
        "unpack_state",
        lambda blob: decodes.append(len(blob)) or real_unpack(blob),
    )

    def script(service):
        pool = service.worker_pool
        supervisor = pool.supervisor
        supervisor.checkpoint_every_claims = 400
        stream(service, chunks, 0, 16)
        assert supervisor.stats()["captures"] >= 2
        # SIGKILL with a respawn: captured blobs + suffix replay.
        kill_owner_of(service, campaigns[0])
        stream(service, chunks, 16, 32)
        assert supervisor.stats()["restarts"] == 1
        assert decodes == []
        # Move a shard so a LOAD_STATE frame sits in the target's
        # journal (rebalancing itself decodes; it is not on this path).
        shard = service.shard_of(campaigns[0])
        source = pool.handle_for(shard)
        target = next(h for h in pool.handles if h is not source)
        supervisor.checkpoint_every_claims = 10**9
        service.rebalance_shard(shard, target.worker_id)
        assert proto.LOAD_STATE in {r for r, _ in target.journal.frames}
        decodes.clear()
        # Lose that host for good: its journal — captures, the
        # LOAD_STATE frame, the suffix — re-homes onto the survivor.
        rates = {point: 0.0 for point in DEFAULT_RATES}
        rates["proc.spawn"] = 1.0
        install(FaultPlan(5, rates=rates))
        try:
            kill_owner_of(service, campaigns[0])
            stream(service, chunks, 32, 48)
        finally:
            uninstall()
        assert supervisor.stats()["rehomes"] == 1
        assert decodes == []

    with IngestService(
        ServiceConfig(num_shards=4, max_batch=256),
        topology=Topology.fabric(2),
    ) as service:
        got = run(service, script)
    assert decodes  # the reads above did decode: the counter works
    assert_snapshots_bitwise_equal(expected, got)


def test_journal_holds_the_hosts_bytes():
    """What ``checkpoint`` journals is the STATE_RESP body itself."""
    with IngestService(
        ServiceConfig(num_shards=2, max_batch=64),
        topology=Topology.fabric(1),
    ) as service:
        service.register_campaign("jr-b", ["o1", "o2", "o3"], max_users=4)
        service.submit_columns(
            "jr-b",
            np.array([0, 1, 2], dtype=np.int64),
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1.0, 2.0, 3.0]),
        )
        service.flush()
        (handle,) = service.worker_pool.handles
        service.worker_pool.supervisor.checkpoint(handle)
        spec, blob = handle.journal.captured["jr-b"]
        assert spec["campaign_id"] == "jr-b"
        assert blob == handle.request(
            proto.STATE_REQ,
            json.dumps({"campaign_id": "jr-b"}).encode("utf-8"),
            proto.STATE_RESP,
        )
        assert proto.state_campaign(blob) == "jr-b"
