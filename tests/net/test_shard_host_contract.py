"""The shard host's contract, rule by rule, against a real child.

Every test drives one ``repro serve-shard --port 0`` subprocess over a
raw :class:`~repro.net.transport.SocketConnection` — no
``IngestService``, no pool, no handle — so what is pinned here is what
the host promises a parent on the wire and through its exit code, not
how this repo's parent happens to use it.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.durable import records as rec
from repro.net.transport import connect
from repro.workers import protocol as proto

CAMPAIGN = "contract-c0"
NUM_USERS = 40
NUM_OBJECTS = 12


@pytest.fixture
def spawn_host():
    """Factory for serve-shard children: ``spawn() -> (process, address)``
    once the child has printed its ``PORT <n>`` line."""
    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    children = []

    def spawn():
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-shard", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        children.append(process)
        first_line = process.stdout.readline()
        assert first_line.startswith("PORT "), first_line
        return process, ("127.0.0.1", int(first_line.split()[1]))

    try:
        yield spawn
    finally:
        for process in children:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)
            process.stdout.close()


@pytest.fixture
def host(spawn_host):
    return spawn_host()


def recv(conn, *, timeout=30.0):
    assert conn.poll(timeout), "host sent no frame in time"
    return conn.recv_frame()


def handshake(address):
    conn = connect(address, timeout=10.0)
    conn.send_frame(rec.CONFIG, rec.encode_json_payload({}))
    assert recv(conn) == (proto.READY, b"")
    return conn


def register(conn, *, num_users=NUM_USERS, num_objects=NUM_OBJECTS):
    conn.send_frame(
        rec.REGISTER,
        rec.encode_json_payload(
            {
                "campaign_id": CAMPAIGN,
                "num_users": num_users,
                "num_objects": num_objects,
                "method": "crh",
                "aggregator": "streaming",
            }
        ),
    )


def batches(count, *, size=64, seed=5):
    rng = np.random.default_rng(seed)
    return [
        rec.WorkItem(
            campaign_id=CAMPAIGN,
            user_slots=rng.integers(0, NUM_USERS, size),
            object_slots=rng.integers(0, NUM_OBJECTS, size),
            values=rng.normal(20.0, 2.0, size),
        ).to_bytes()
        for _ in range(count)
    ]


def campaign_request(rtype):
    return rtype, rec.encode_json_payload({"campaign_id": CAMPAIGN})


def error_traceback(payload):
    return json.loads(payload.decode("utf-8"))["traceback"]


# ------------------------------------------------------------ handshake
def test_first_stdout_line_is_the_port_and_config_answers_ready(host):
    _process, address = host  # the fixture asserted "PORT <n>" came first
    conn = handshake(address)
    conn.send_frame(proto.SYNC_REQ, b"token")
    assert recv(conn) == (proto.SYNC_RESP, b"token")
    conn.close()


def test_shutdown_frame_exits_zero(host):
    process, address = host
    conn = handshake(address)
    conn.send_frame(proto.SHUTDOWN)
    assert process.wait(timeout=10) == 0
    conn.close()


def test_first_frame_not_config_is_an_error_and_a_nonzero_exit(host):
    process, address = host
    conn = connect(address, timeout=10.0)
    conn.send_frame(proto.SYNC_REQ, b"")
    rtype, payload = recv(conn)
    assert rtype == proto.ERROR
    assert "expected a CONFIG frame" in error_traceback(payload)
    assert process.wait(timeout=10) != 0
    conn.close()


# ------------------------------------------------------------ lifecycle
def test_data_plane_closing_without_shutdown_ends_the_host(host):
    """The parent is gone: an orphaned host would serve no one."""
    process, address = host
    conn = handshake(address)
    conn.close()
    assert process.wait(timeout=2.0) == 0


def test_dispatch_failure_reports_the_traceback_then_exits_nonzero(host):
    process, address = host
    conn = handshake(address)
    conn.send_frame(rec.BATCH, b"garbage bytes")
    rtype, payload = recv(conn)
    assert rtype == proto.ERROR
    assert "Traceback" in error_traceback(payload)
    assert process.wait(timeout=10) != 0
    conn.close()


# ------------------------------------------------------------ heartbeat
def stream_and_snapshot(address, *, ping_midway):
    """REGISTER, 8 batches, SNAPSHOT_REQ; optionally a PING on a second
    connection after the fourth batch.  Returns the snapshot body."""
    conn = handshake(address)
    register(conn)
    frames = batches(8)
    for frame in frames[:4]:
        conn.send_frame(rec.BATCH, frame)
    if ping_midway:
        side = connect(address, timeout=10.0)
        side.send_frame(proto.PING, b"beat")
        assert recv(side) == (proto.PONG, b"beat")
        side.close()
    for frame in frames[4:]:
        conn.send_frame(rec.BATCH, frame)
    conn.send_frame(*campaign_request(proto.SNAPSHOT_REQ))
    rtype, body = recv(conn)
    assert rtype == proto.SNAPSHOT_RESP
    conn.send_frame(proto.SHUTDOWN)
    conn.close()
    return body


def test_ping_on_a_second_connection_leaves_the_data_plane_alone(
    spawn_host,
):
    """A heartbeat is answered while the data plane is mid-stream, and
    the stream's outcome is bitwise what it is without the heartbeat."""
    with_ping = stream_and_snapshot(spawn_host()[1], ping_midway=True)
    without_ping = stream_and_snapshot(spawn_host()[1], ping_midway=False)
    assert with_ping == without_ping
    assert proto.unpack_state(with_ping)["claims_ingested"] == 8 * 64


# -------------------------------------------------------------- SIGTERM
def test_sigterm_mid_response_delivers_the_whole_frame_and_exits_zero(
    host,
):
    """SIGTERM is a polite stop: a response already on its way — here a
    state frame several times the size of the socket buffers, so the
    host is blocked mid-send when the signal lands — still arrives
    whole, and the host exits 0."""
    process, address = host
    conn = handshake(address)
    register(conn, num_users=8000, num_objects=64)
    conn.send_frame(*campaign_request(proto.STATE_REQ))
    # First bytes of the response are here; the rest cannot be, because
    # nothing has read them yet.
    readable, _, _ = select.select([conn], [], [], 30.0)
    assert readable, "host never started answering"
    process.send_signal(signal.SIGTERM)
    time.sleep(0.3)  # let the handler run while the send is blocked
    rtype, body = recv(conn)
    assert rtype == proto.STATE_RESP
    assert len(body) >= 1 << 20
    state = proto.unpack_state(body)
    assert state["campaign_id"] == CAMPAIGN
    assert process.wait(timeout=10) == 0
    conn.close()
