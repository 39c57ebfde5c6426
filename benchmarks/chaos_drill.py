"""The chaos drill: seeded faults, a murdered primary, a self-healing check.

``python benchmarks/chaos_drill.py`` (no ``PYTHONPATH`` needed) runs N
fully-seeded failure scenarios against a *live* replicated topology and
asserts the system healed itself — the one kill-the-primary driver of
this repository, kept outside the library it drives:

1. spawn a **primary driver** child (this script re-exec'd with
   ``--run-primary``) that installs ``FaultPlan(seed)``, builds
   ``Topology.replicated(standbys=2, auto_failover=True)`` — real
   ``repro standby`` processes, a real detached ``repro watchdog`` —
   plus a tight compaction policy, serves ``/metrics`` on
   an ephemeral port (announced as ``METRICS <url>``), and streams
   claims under injected connection resets, delays, and dial refusals;
2. wait until the watchdog prints ``ARMED`` and a standby holds a
   replicated prefix, scrape the doomed primary's replication
   telemetry live (:data:`ACTIVE_FAMILIES` non-zero, the lag gauges
   exposed — ``scrape_check.py``), optionally SIGKILL one standby
   (seed-derived), then **SIGKILL the primary** — every drill includes
   this fault;
3. read the watchdog's ``PROMOTED <json>`` line off the still-open
   stdout pipe (the watchdog inherited it and outlives the primary —
   no operator, no ``promote()`` call from the harness);
4. verify the two invariants that make failover trustworthy:
   **bitwise truths** — the promoted standby's truths are bit-for-bit
   equal to an independent replay of the dead primary's WAL at the
   replicated watermark — and **spent budget stays spent** — every
   privacy-budget charge the dead primary admitted survives in the
   promoted ledger;
5. read through a :class:`~repro.replication.client.FailoverReadClient`
   so the re-pointing path is exercised on every drill.

That is the ``promotion`` scenario.  Two more ride the same harness
(``--scenarios``, all three by default):

- ``host-loss`` — in-process: a ``proc.spawn`` fault at rate 1.0
  refuses every respawn, one shard host is SIGKILLed mid-stream, and
  the supervisor must declare the host lost and re-home its shards
  onto a survivor from the journal — bitwise-equal to an uncrashed
  reference run, budget intact, and the WAL replay agreeing;
- ``partition`` — the child launches a **3-watchdog fleet** with one
  member's dials chaos-refused (that member is this script re-exec'd
  with ``--run-watchdog``: it installs the refusing ``FaultPlan`` in
  its own process and then runs the stock ``repro watchdog``); after
  the primary SIGKILL the two healthy members race, and quorum votes
  plus the fencing epoch must yield *exactly one* ``PROMOTED`` line,
  with a stale-epoch PROMOTE refused by every surviving standby.

Determinism: the injected fault schedule is a pure function of the
drill seed (see :mod:`repro.chaos.plan`), so a failing seed replays
with ``python benchmarks/chaos_drill.py --seeds <seed>``.  Wall-clock timings
(detection/promotion/rehome) are environment-dependent and are gated,
not replayed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

# Like benchmarks/e2e/run.py: drive the checkout's own src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CHUNK = 256
NUM_USERS = 60
NUM_OBJECTS = 24
CAMPAIGN = "chaos-drill"

#: Scenario classes ``run_chaos_drill`` knows how to stage.
SCENARIOS = ("promotion", "host-loss", "partition")

#: Seeds the CI smoke job pins (failures reproduce from the seed alone).
SMOKE_SEEDS = (101, 202, 303, 404, 505)

#: Pinned seeds of the cheaper degraded-mode scenarios (each host-loss
#: drill is in-process; each partition drill runs a 3-watchdog fleet).
HOST_LOSS_SMOKE_SEEDS = (11, 22)
PARTITION_SMOKE_SEEDS = (7,)

#: A standby must hold at least this LSN before the primary is killed,
#: so the promoted state is never trivially empty.  The primary logs
#: CONFIG and REGISTER, then one CHARGE and one BATCH record per chunk
#: (its registered users need no USERS record): LSN 12 is the first
#: five chunks and their charges, what it has logged when it prints
#: STREAMING.
MIN_REPLICATED_LSN = 12

#: Replication families the doomed primary must expose, non-zero,
#: before it is killed.  (The lag gauges are only asserted present: a
#: caught-up standby legitimately reports zero lag.)
ACTIVE_FAMILIES = (
    "repro_replication_connected",
    "repro_replication_records_shipped_total",
    "repro_replication_bytes_shipped_total",
    "repro_replication_ship_seconds",
)
LAG_FAMILIES = (
    "repro_replication_lag_lsn",
    "repro_replication_lag_seconds",
)


# ----------------------------------------------------------------------
# Child: the primary that is going to die, faults installed.
def run_primary(args) -> int:
    from repro.chaos import FaultPlan, injected_counts, install
    from repro.durable import (
        CompactionPolicy,
        DurabilityConfig,
    )
    from repro.obs.exposition import MetricsServer
    from repro.privacy.ldp import LDPGuarantee
    from repro.service.ingest import IngestService, ServiceConfig
    from repro.service.ledger import BudgetLedger
    from repro.service.loadgen import LoadGenerator
    from repro.service.topology import Topology

    # Deterministic injection, in this process only: the standbys and
    # the watchdog are separate processes and stay fault-free — chaos
    # tests the primary's side of every stream, not the detector.
    install(FaultPlan(args.seed))
    durability = DurabilityConfig(
        directory=args.dir,
        fsync="batch",
        checkpoint_every_claims=4 * CHUNK,
        compaction=CompactionPolicy(
            max_wal_bytes=512 * 1024,
            min_interval_seconds=1.0,
            check_interval_seconds=0.2,
        ),
    )
    # A single watchdog rides the service's own auto_failover plumbing;
    # a quorum fleet is launched by hand so one member (and only that
    # member) can be chaos-partitioned from everything it dials.
    fleet = args.watchdogs > 1
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=CHUNK),
        ledger=BudgetLedger(epsilon_cap=1e6),
        topology=Topology.replicated(
            standbys=args.standbys,
            durability=durability,
            auto_failover=not fleet,
            heartbeat_interval=0.2,
            heartbeat_misses=3,
        ),
    )
    metrics = MetricsServer(service.metrics_snapshot)
    print(f"METRICS {metrics.url}", flush=True)
    for handle in service.standbys.handles:
        print(
            f"STANDBY {handle.index} {handle.address[1]} "
            f"{handle.process.pid}",
            flush=True,
        )
    if fleet:
        from repro.replication.watchdog import (
            PrimaryStatusServer,
            allocate_peer_ports,
            launch_watchdog,
        )

        status_server = PrimaryStatusServer(service.durability)
        status_server.start()
        peer_ports = allocate_peer_ports(args.watchdogs)
        standby_addresses = [
            h.address for h in service.standbys.handles
        ]
        for i in range(args.watchdogs):
            peers = [
                ("127.0.0.1", port)
                for j, port in enumerate(peer_ports)
                if j != i
            ]
            if i == args.partition_watchdog:
                proc = _launch_partitioned_watchdog(
                    args.seed,
                    status_server.address,
                    standby_addresses,
                    index=i,
                    peer_port=peer_ports[i],
                    peers=peers,
                )
            else:
                proc = launch_watchdog(
                    status_server.address,
                    standby_addresses,
                    interval=0.2,
                    misses=3,
                    index=i,
                    peer_port=peer_ports[i],
                    peers=peers,
                )
            print(f"WATCHDOG {proc.pid}", flush=True)
    else:
        print(f"WATCHDOG {service.watchdog_process.pid}", flush=True)

    gen = LoadGenerator(
        CAMPAIGN,
        num_users=NUM_USERS,
        num_objects=NUM_OBJECTS,
        random_state=args.seed,
    )
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=NUM_USERS,
        user_ids=gen.user_ids,
        cost=LDPGuarantee(epsilon=1e-4, delta=0.0),
    )
    # Stream slowly enough that the parent reliably kills us
    # mid-stream; the sleeps also give injected delays and resets a
    # live reconnect path to chew on.
    for i, chunk in enumerate(
        gen.column_chunks(args.claims, chunk_size=CHUNK)
    ):
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        service.pump()
        if i == 4:
            print("STREAMING", flush=True)
        if i % 10 == 0:
            print(
                "FAULTS " + json.dumps(injected_counts(), sort_keys=True),
                flush=True,
            )
        time.sleep(0.03)
    # Only reached if the parent never killed us; stay alive so the
    # kill can still land (a drill that outruns its harness is a
    # harness bug, not a heal).
    print("STREAM-EXHAUSTED", flush=True)
    time.sleep(120.0)
    service.close()
    return 0


def _launch_partitioned_watchdog(
    seed: int, primary, standbys, *, index: int, peer_port: int, peers
) -> subprocess.Popen:
    """Start the fleet member on the minority side of the partition:
    this script again, which installs the refusing plan in its own
    process (:func:`run_watchdog`) before becoming ``repro watchdog``.
    Inherits stdout, like every watchdog."""
    from repro.replication.watchdog import format_address

    argv = [
        "--primary", format_address(primary),
        "--interval", "0.2",
        "--misses", "3",
        "--index", str(index),
        "--peer-port", str(peer_port),
    ]
    for address in standbys:
        argv += ["--standby", format_address(address)]
    for address in peers:
        argv += ["--peer", format_address(address)]
    return subprocess.Popen(
        [
            sys.executable, os.path.abspath(__file__),
            "--seed", str(seed), "--run-watchdog", *argv,
        ]
    )


def run_watchdog(seed: int, argv: Sequence[str]) -> int:
    """Child: a stock watchdog whose every outbound dial is refused
    (until the plan's per-point cap heals the partition) — it can never
    probe the primary, reach a standby, or collect a vote."""
    from repro.chaos import FaultPlan, install
    from repro.cli import main as repro_main

    install(FaultPlan(seed, rates={"net.connect": 1.0}))
    return repro_main(["watchdog", *argv])


# ----------------------------------------------------------------------
# Parent: orchestrate, kill, observe the self-heal, verify.
def replay_primary_prefix(directory: Path, up_to_lsn: int):
    """Independently rebuild the dead primary's state at ``up_to_lsn``.

    Same record-application path the standby used
    (:class:`~repro.durable.recovery.RecordApplier`), driven straight
    off the dead primary's segments — an arbiter that shares no
    process with either side of the replication stream.
    """
    from repro.durable import records as rec
    from repro.durable.recovery import RecordApplier, service_from_config
    from repro.durable.wal import read_wal

    service = None
    applier = None
    for record in read_wal(directory).records:
        if record.lsn > up_to_lsn:
            break
        if record.rtype == rec.CONFIG:
            if service is None:
                service = service_from_config(record.decode())
                applier = RecordApplier(service)
            continue
        applier.apply(record)
    if service is None:
        raise RuntimeError(f"no CONFIG record in {directory}")
    return service


def ledger_key(records):
    return sorted(
        (r["user_id"], r["epsilon"], r["delta"]) for r in records
    )


class _LineReader:
    """Read a child's stdout on a thread so waits can carry deadlines
    (after the primary dies, the next line comes from the watchdog —
    or never, which must be a timeout, not a hang)."""

    def __init__(self, stream) -> None:
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        )
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._queue.put(line.strip())
        self._queue.put(None)  # EOF

    def next_line(self, timeout: float) -> Optional[str]:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"no output from drill child within {timeout}s"
            ) from None

    def wait_for(
        self, prefixes: Sequence[str], *, timeout: float, sink=None
    ) -> str:
        """Return the first line starting with any prefix; feed every
        line through ``sink`` on the way."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"child never printed any of {prefixes}"
                )
            line = self.next_line(remaining)
            if line is None:
                raise RuntimeError(
                    f"child stdout closed before any of {prefixes}"
                )
            if sink is not None:
                sink(line)
            if any(line.startswith(p) for p in prefixes):
                return line


def _kill_pid(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def check_live_metrics(url: str) -> None:
    """The doomed primary's replication telemetry, scraped mid-stream:
    shipping families non-zero, lag gauges exposed."""
    import scrape_check

    from repro.obs.exposition import try_scrape

    if scrape_check.check_endpoint(
        url, ACTIVE_FAMILIES, retries=60, interval=0.25
    ):
        raise RuntimeError(
            "replication metric families not live on the primary"
        )
    snapshot = try_scrape(url)
    names = set() if snapshot is None else snapshot.names()
    missing = [family for family in LAG_FAMILIES if family not in names]
    if missing:
        raise RuntimeError(f"lag gauges not exposed: {missing}")


def run_one_drill(
    seed: int,
    *,
    claims: int,
    standbys: int = 2,
    watchdogs: int = 1,
    partition_watchdog: Optional[int] = None,
    log=print,
) -> dict:
    """One seeded drill; returns the per-seed result dict.

    With ``watchdogs > 1`` the child runs a quorum fleet;
    ``partition_watchdog`` names the member launched behind a
    total-connect-refusal fault plan.  The drill then also asserts the
    degraded-quorum invariants: exactly one ``PROMOTED`` line ever
    appears, and a re-``promote()`` at the winning fencing epoch is
    refused by *every* surviving standby.
    """
    from repro.replication.client import (
        FailoverReadClient,
        ReplicaError,
        ReplicaReadClient,
    )
    from repro.utils.rng import derive_seed

    root = Path(tempfile.mkdtemp(prefix=f"repro-chaos-{seed}-"))
    primary_dir = root / "wal"
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--run-primary",
        "--seed",
        str(seed),
        "--dir",
        str(primary_dir),
        "--claims",
        str(claims),
        "--standbys",
        str(standbys),
        "--watchdogs",
        str(watchdogs),
    ]
    if partition_watchdog is not None:
        argv.extend(["--partition-watchdog", str(partition_watchdog)])
    child = subprocess.Popen(
        argv,
        env={**os.environ},
        stdout=subprocess.PIPE,
        text=True,
    )
    standby_ports: dict[int, int] = {}
    standby_pids: dict[int, int] = {}
    watchdog_pids: list[int] = []
    faults: dict = {}
    metrics_url = None
    armed = 0
    promoted_lines = 0

    def sink(line: str) -> None:
        nonlocal armed, promoted_lines, metrics_url
        if line.startswith("METRICS "):
            metrics_url = line.split(" ", 1)[1]
        elif line.startswith("STANDBY "):
            _, index, port, pid = line.split()
            standby_ports[int(index)] = int(port)
            standby_pids[int(index)] = int(pid)
        elif line.startswith("WATCHDOG "):
            watchdog_pids.append(int(line.split()[1]))
        elif line.startswith("FAULTS "):
            faults.update(json.loads(line.split(" ", 1)[1]))
        elif line.startswith("ARMED"):
            armed += 1
        elif line.startswith("PROMOTED "):
            promoted_lines += 1

    # The partitioned member cannot reach the primary, so it never
    # arms; every healthy member must before the kill.
    armed_needed = watchdogs - (0 if partition_watchdog is None else 1)
    result: dict = {
        "seed": seed,
        "scenario": "promotion" if watchdogs == 1 else "partition",
        "auto_promoted": False,
    }
    try:
        reader = _LineReader(child.stdout)
        reader.wait_for(["STREAMING"], timeout=180.0, sink=sink)
        arm_deadline = time.monotonic() + 60.0
        while armed < armed_needed:
            reader.wait_for(
                ["ARMED"],
                timeout=max(0.1, arm_deadline - time.monotonic()),
                sink=sink,
            )
        if len(standby_ports) != standbys:
            raise RuntimeError("child never announced its standbys")

        # A standby must hold a real replicated prefix before we pull
        # the plug, or "bitwise at the watermark" verifies nothing.
        deadline = time.monotonic() + 120.0
        while True:
            watermarks = {}
            for index, port in standby_ports.items():
                try:
                    with ReplicaReadClient(
                        ("127.0.0.1", port), timeout=5.0
                    ) as client:
                        watermarks[index] = client.status()["durable_lsn"]
                except (OSError, EOFError, ConnectionError):
                    continue
            if watermarks and max(watermarks.values()) >= MIN_REPLICATED_LSN:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"no standby reached lsn {MIN_REPLICATED_LSN}; "
                    f"saw {watermarks}"
                )
            time.sleep(0.05)

        if metrics_url is None:
            raise RuntimeError("child never announced /metrics")
        check_live_metrics(metrics_url)

        # Seed-derived extra process fault: SIGKILL at most one standby
        # (never all — someone must be left to elect).  Distinct bits
        # of the draw decide *whether* and *whom*: reusing the parity
        # bit for both would pin the victim to standby 0 forever.
        # Partition drills skip it — one fault class per scenario.
        kill_draw = derive_seed(seed, "drill", "kill-standby")
        victim: Optional[int] = None
        if (
            watchdogs == 1
            and standbys > 1
            and (kill_draw >> 1) % 2 == 0
        ):
            victim = (kill_draw >> 2) % standbys
            log(f"  chaos: SIGKILL standby {victim} "
                f"(pid {standby_pids[victim]})")
            _kill_pid(standby_pids[victim])
        result["standby_killed"] = victim

        log(f"  SIGKILL primary pid {child.pid}")
        kill_time = time.monotonic()
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30.0)

        # The watchdog inherited the stdout pipe; its PROMOTED line is
        # the proof the system healed itself — nobody on this side of
        # the pipe calls promote().
        line = reader.wait_for(["PROMOTED "], timeout=90.0, sink=sink)
        promoted = json.loads(line.split(" ", 1)[1])
        failover_wall = time.monotonic() - kill_time
        result.update(
            {
                "auto_promoted": True,
                "promoted_index": promoted["promoted_index"],
                "watermark_lsn": promoted["watermark_lsn"],
                "fencing_epoch": promoted.get("fencing_epoch"),
                "watchdog_index": promoted.get("watchdog_index"),
                "detection_seconds": promoted["detection_seconds"],
                "promotion_seconds": promoted["promotion_seconds"],
                "failover_wall_seconds": failover_wall,
                "faults_injected": dict(faults),
            }
        )
        log(
            f"  PROMOTED standby {promoted['promoted_index']} at lsn "
            f"{promoted['watermark_lsn']} (detect "
            f"{promoted['detection_seconds']:.2f}s, promote "
            f"{promoted['promotion_seconds']:.2f}s)"
        )
        if watchdogs > 1:
            # Grace window: every extra PROMOTED line the rest of the
            # fleet could ever print lands here (losers print OBSERVED
            # and exit; the partitioned member can only retry during
            # the window).  More than one promotion is split-brain.
            grace_until = time.monotonic() + 8.0
            while True:
                remaining = grace_until - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    extra = reader.next_line(remaining)
                except TimeoutError:
                    break
                if extra is None:
                    break
                sink(extra)
            result["promoted_lines"] = promoted_lines
            result["no_double_promotion"] = promoted_lines == 1
            log(
                f"  quorum: {promoted_lines} promotion(s) across a "
                f"fleet of {watchdogs} (one partitioned)"
            )

        # The spent-budget status must come from the new primary.
        promoted_port = standby_ports[promoted["promoted_index"]]
        with ReplicaReadClient(
            ("127.0.0.1", promoted_port), timeout=10.0
        ) as primary_client:
            deadline = time.monotonic() + 30.0
            status = primary_client.status()
            while not status.get("promoted"):
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "promoted standby never reported promoted=True"
                    )
                time.sleep(0.1)
                status = primary_client.status()

        # The fence must hold fleet-wide: a stale PROMOTE at the
        # epoch that already won is refused by the promoted standby
        # *and* by every surviving non-promoted standby (the winner
        # broadcast the epoch) — two primaries are unreachable even
        # for a partitioned watchdog that wakes up late.
        stale_epoch = int(promoted.get("fencing_epoch") or 1)
        stale_refused = True
        for index, port in sorted(standby_ports.items()):
            if index == victim:
                continue
            try:
                with ReplicaReadClient(
                    ("127.0.0.1", port), timeout=5.0
                ) as fence_client:
                    fence_client.promote(epoch=stale_epoch)
                stale_refused = False
                log(f"  FENCE BREACH: standby {index} accepted stale "
                    f"epoch {stale_epoch}")
            except ReplicaError as exc:
                if "stale fencing epoch" not in str(exc):
                    stale_refused = False
                    log(f"  stale promote on standby {index} failed "
                        f"oddly: {exc}")
        result["stale_promote_refused"] = stale_refused

        # Read through the re-pointing client: when a standby was
        # killed, start there — the read path must walk off the corpse
        # to the new primary on its own.  (A non-promoted survivor
        # would serve truths at *its* watermark, so the walk must end
        # on the promoted standby either way.)
        addresses = []
        if victim is not None:
            addresses.append(("127.0.0.1", standby_ports[victim]))
        addresses.append(("127.0.0.1", promoted_port))
        with FailoverReadClient(addresses, timeout=3.0) as read_client:
            snapshot = read_client.snapshot(CAMPAIGN)
            result["read_repoints"] = read_client.repoints
        arbiter = replay_primary_prefix(
            primary_dir, promoted["watermark_lsn"]
        )
        crashed = arbiter.snapshot(CAMPAIGN)
        result["truths_match_bitwise"] = _snapshots_bitwise_equal(
            snapshot, crashed
        )
        spent = status["ledger"]["records"]
        result["budget_spent_matches"] = bool(
            len(spent) > 0
            and ledger_key(spent) == ledger_key(arbiter.ledger.to_records())
        )
        result["claims_preserved"] = int(snapshot.claims_ingested)
        log(
            f"  invariants: bitwise="
            f"{result['truths_match_bitwise']} "
            f"budget={result['budget_spent_matches']} "
            f"(repoints={result['read_repoints']})"
        )
        return result
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for index, port in standby_ports.items():
            try:
                with ReplicaReadClient(
                    ("127.0.0.1", port), timeout=2.0
                ) as client:
                    client.shutdown()
            except (OSError, EOFError, ConnectionError):
                pass
        time.sleep(0.2)
        for pid in standby_pids.values():
            _kill_pid(pid)
        for pid in watchdog_pids:
            _kill_pid(pid)
        if child.stdout is not None:
            child.stdout.close()
        shutil.rmtree(root, ignore_errors=True)


def _host_loss_campaigns(seed: int):
    """The three campaigns every host-loss run (crashed, reference,
    arbiter) streams — identical traffic is the whole comparison."""
    from repro.service.loadgen import LoadGenerator

    return [
        LoadGenerator(
            f"drill-c{i}",
            num_users=NUM_USERS,
            num_objects=NUM_OBJECTS,
            random_state=seed + i,
        )
        for i in range(3)
    ]


def _host_loss_service(num_shards: int, topology, directory=None):
    from repro.durable import DurabilityConfig
    from repro.privacy.ldp import LDPGuarantee
    from repro.service.ingest import IngestService, ServiceConfig
    from repro.service.ledger import BudgetLedger
    from repro.service.topology import Topology

    if topology == "fabric":
        topology = Topology.fabric(
            2,
            durability=DurabilityConfig(
                directory=directory, fsync="batch"
            ),
        )
    else:
        topology = Topology.in_process()
    service = IngestService(
        ServiceConfig(num_shards=num_shards, max_batch=CHUNK),
        ledger=BudgetLedger(epsilon_cap=1e6),
        topology=topology,
    )
    for gen in _host_loss_campaigns(0):
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=NUM_USERS,
            user_ids=gen.user_ids,
            cost=LDPGuarantee(epsilon=1e-4, delta=0.0),
        )
    return service


def _stream_host_loss(service, seed: int, claims: int, *, midstream=None):
    """Interleave the three campaigns' chunks; fire ``midstream`` once
    at the halfway point (that is where the host dies)."""
    per_campaign = max(CHUNK, claims // 3)
    chunk_lists = [
        list(gen.column_chunks(per_campaign, chunk_size=CHUNK))
        for gen in _host_loss_campaigns(seed)
    ]
    total = max(len(chunks) for chunks in chunk_lists)
    for i in range(total):
        if midstream is not None and i == total // 2:
            midstream()
        for chunks in chunk_lists:
            if i < len(chunks):
                chunk = chunks[i]
                service.submit_columns(
                    chunk.campaign_id,
                    chunk.user_slots,
                    chunk.object_slots,
                    chunk.values,
                )
        if i % 3 == 0:
            service.pump()
    service.flush()


def _snapshots_bitwise_equal(got, expected) -> bool:
    import numpy as np

    return bool(
        got.truths.tobytes() == expected.truths.tobytes()
        and np.all(np.isfinite(got.truths))
        and got.weights_by_user == expected.weights_by_user
        and got.claims_ingested == expected.claims_ingested
        and got.claims_ingested > 0
    )


def run_host_loss_drill(
    seed: int,
    *,
    claims: int,
    num_shards: int = 4,
    log=print,
) -> dict:
    """Kill a shard host *and* refuse every respawn; assert the rehome.

    The degraded-mode scenario behind ``Supervisor.rehome``: a two-host
    fabric streams three campaigns, the host owning campaign 0 is
    SIGKILLed at the halfway mark, and the ``proc.spawn`` fault point
    (rate 1.0) turns the loss permanent — the supervisor must exhaust
    its bounded respawn attempts and re-home the dead host's shards
    onto the survivor from its journal.  Invariants:

    * **rehome_truths_match_bitwise** — every campaign's truths equal
      an uncrashed single-process reference run, bit for bit;
    * **wal_replay_matches** — they also equal an independent replay of
      the service's own WAL (the arbiter shares no fabric state);
    * **rehome_budget_matches** — the privacy ledger matches the
      reference's, record for record.
    """
    from repro.chaos import (
        DEFAULT_RATES,
        FaultPlan,
        injected_counts,
        install,
        uninstall,
    )

    log("  reference run (uncrashed, in-process)")
    reference = _host_loss_service(num_shards, "in_process")
    try:
        _stream_host_loss(reference, seed, claims)
        expected = {
            gen.campaign_id: reference.snapshot(gen.campaign_id)
            for gen in _host_loss_campaigns(seed)
        }
        expected_ledger = ledger_key(reference.ledger.to_records())
    finally:
        reference.close()

    root = Path(tempfile.mkdtemp(prefix=f"repro-hostloss-{seed}-"))
    # The kill is the drill's own deterministic fault; the only seeded
    # injection is the spawn refusal that makes the loss permanent.
    rates = {point: 0.0 for point in DEFAULT_RATES}
    rates["proc.spawn"] = 1.0
    install(FaultPlan(seed, rates=rates))
    result: dict = {"seed": seed, "scenario": "host-loss"}
    service = None
    try:
        service = _host_loss_service(
            num_shards, "fabric", directory=root / "wal"
        )
        victim_shard = service.shard_of("drill-c0")
        victim = service.worker_pool.handle_for(victim_shard)
        result["victim_host"] = victim.worker_id

        def kill_host() -> None:
            log(f"  chaos: SIGKILL shard host {victim.worker_id} "
                f"(pid {victim.process.pid}); respawns refused")
            _kill_pid(victim.process.pid)
            victim.process.join(10)

        _stream_host_loss(service, seed, claims, midstream=kill_host)
        stats = service.worker_pool.supervisor.stats()
        snapshots = {
            gen.campaign_id: service.snapshot(gen.campaign_id)
            for gen in _host_loss_campaigns(seed)
        }
        got_ledger = ledger_key(service.ledger.to_records())
        result.update(
            {
                "rehomes": stats["rehomes"],
                "hosts_lost": stats["hosts_lost"],
                "respawn_retries": stats["respawn_retries"],
                "placement_epoch": stats["placement_epoch"],
                "rehome_seconds": stats["last_rehome_seconds"],
                "faults_injected": injected_counts(),
            }
        )
        result["rehome_truths_match_bitwise"] = bool(
            stats["rehomes"] >= 1
            and all(
                _snapshots_bitwise_equal(snapshots[cid], expected[cid])
                for cid in expected
            )
        )
        result["rehome_budget_matches"] = bool(
            len(got_ledger) > 0 and got_ledger == expected_ledger
        )
        result["claims_preserved"] = int(
            sum(s.claims_ingested for s in snapshots.values())
        )
        service.close()
        service = None
        uninstall()
        arbiter = replay_primary_prefix(root / "wal", 10**12)
        result["wal_replay_matches"] = all(
            _snapshots_bitwise_equal(
                arbiter.snapshot(cid), snapshots[cid]
            )
            for cid in expected
        )
        log(
            f"  rehomed {stats['rehomes']} host(s) in "
            f"{stats['last_rehome_seconds']:.3f}s "
            f"(placement epoch {stats['placement_epoch']}, "
            f"bitwise={result['rehome_truths_match_bitwise']}, "
            f"wal={result['wal_replay_matches']}, "
            f"budget={result['rehome_budget_matches']})"
        )
        return result
    finally:
        if service is not None:
            service.close()
        uninstall()
        shutil.rmtree(root, ignore_errors=True)


def run_chaos_drill(
    *,
    seeds: Optional[Sequence[int]] = None,
    drills: int = 5,
    base_seed: int = 2020,
    claims: int = 6000,
    smoke: bool = False,
    scenarios: Optional[Sequence[str]] = None,
    log=print,
) -> dict:
    """Run every scenario and seed; returns the report the CI job gates.

    ``scenarios`` picks from :data:`SCENARIOS` (None runs all three).
    An explicit ``seeds`` list applies to every selected scenario —
    that is how a failing seed replays in isolation; otherwise each
    scenario gets its own pinned (``--smoke``) or ``base_seed``-derived
    list.  Invariant keys only appear for scenarios that ran, so a
    targeted re-run is gated on exactly what it exercised.
    """
    if scenarios is None:
        scenarios = SCENARIOS
    unknown = set(scenarios) - set(SCENARIOS)
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {sorted(unknown)}; "
            f"known: {list(SCENARIOS)}"
        )
    if smoke:
        claims = min(claims, 4000)

    def scenario_seeds(pinned, derived):
        if seeds is not None:
            return list(seeds)
        return list(pinned) if smoke else derived

    promotion_results: list = []
    rehome_results: list = []
    partition_results: list = []
    if "promotion" in scenarios:
        for seed in scenario_seeds(
            SMOKE_SEEDS, [base_seed + 101 * i for i in range(drills)]
        ):
            log(f"== promotion drill seed {seed} ==")
            try:
                promotion_results.append(
                    run_one_drill(seed, claims=claims, log=log)
                )
            except (RuntimeError, TimeoutError, OSError) as exc:
                log(f"  drill seed {seed} FAILED: {exc}")
                promotion_results.append(
                    {
                        "seed": seed,
                        "scenario": "promotion",
                        "auto_promoted": False,
                        "error": str(exc),
                    }
                )
    if "host-loss" in scenarios:
        for seed in scenario_seeds(
            HOST_LOSS_SMOKE_SEEDS, [base_seed + 11 * i for i in range(2)]
        ):
            log(f"== host-loss drill seed {seed} ==")
            try:
                rehome_results.append(
                    run_host_loss_drill(seed, claims=claims, log=log)
                )
            except (RuntimeError, TimeoutError, OSError) as exc:
                log(f"  host-loss seed {seed} FAILED: {exc}")
                rehome_results.append(
                    {
                        "seed": seed,
                        "scenario": "host-loss",
                        "error": str(exc),
                    }
                )
    if "partition" in scenarios:
        for seed in scenario_seeds(
            PARTITION_SMOKE_SEEDS, [base_seed + 7]
        ):
            log(f"== partition drill seed {seed} (watchdogs=3) ==")
            try:
                partition_results.append(
                    run_one_drill(
                        seed,
                        claims=claims,
                        watchdogs=3,
                        partition_watchdog=2,
                        log=log,
                    )
                )
            except (RuntimeError, TimeoutError, OSError) as exc:
                log(f"  partition seed {seed} FAILED: {exc}")
                partition_results.append(
                    {
                        "seed": seed,
                        "scenario": "partition",
                        "auto_promoted": False,
                        "error": str(exc),
                    }
                )

    killed = promotion_results + partition_results
    results = killed + rehome_results
    healed = [r for r in killed if r.get("auto_promoted")]
    invariants: dict = {}
    if killed:
        invariants.update(
            {
                "auto_promoted": len(healed) == len(killed),
                "truths_match_bitwise": all(
                    r.get("truths_match_bitwise") for r in killed
                ),
                "budget_spent_matches": all(
                    r.get("budget_spent_matches") for r in killed
                ),
                "stale_promote_refused": all(
                    r.get("stale_promote_refused") for r in killed
                ),
            }
        )
    if partition_results:
        invariants["no_double_promotion"] = all(
            r.get("no_double_promotion") for r in partition_results
        )
    if rehome_results:
        invariants.update(
            {
                "rehome_truths_match_bitwise": all(
                    r.get("rehome_truths_match_bitwise")
                    for r in rehome_results
                ),
                "rehome_budget_matches": all(
                    r.get("rehome_budget_matches")
                    for r in rehome_results
                ),
                "wal_replay_matches": all(
                    r.get("wal_replay_matches") for r in rehome_results
                ),
            }
        )
    report = {
        "kind": "chaos",
        "scenarios": list(scenarios),
        "seeds": sorted({r["seed"] for r in results}),
        "claims_per_drill": claims,
        "drills": results,
        "watchdog": {
            "detection_seconds_max": max(
                (r["detection_seconds"] for r in healed), default=None
            ),
            "promotion_seconds_max": max(
                (r["promotion_seconds"] for r in healed), default=None
            ),
            "failover_wall_seconds_max": max(
                (r["failover_wall_seconds"] for r in healed),
                default=None,
            ),
        },
        "rehome": {
            "rehome_seconds_max": max(
                (
                    r["rehome_seconds"]
                    for r in rehome_results
                    if r.get("rehome_seconds") is not None
                ),
                default=None,
            ),
            "hosts_lost_total": sum(
                len(r.get("hosts_lost", ())) for r in rehome_results
            ),
            "rehomes_total": sum(
                r.get("rehomes", 0) for r in rehome_results
            ),
        },
        "invariants": invariants,
    }
    return report


def format_drill_summary(report: dict) -> str:
    lines = [
        f"chaos drill: scenarios {report.get('scenarios', ['promotion'])}"
        f" over {len(report['drills'])} run(s)"
    ]
    for drill in report["drills"]:
        scenario = drill.get("scenario", "promotion")
        if scenario == "host-loss":
            if "error" in drill:
                lines.append(
                    f"  [host-loss] seed {drill['seed']}: FAILED "
                    f"({drill['error']})"
                )
                continue
            lines.append(
                f"  [host-loss] seed {drill['seed']}: lost host(s) "
                f"{drill['hosts_lost']}, rehomed in "
                f"{drill['rehome_seconds']:.3f}s (bitwise="
                f"{drill['rehome_truths_match_bitwise']}, wal="
                f"{drill['wal_replay_matches']}, budget="
                f"{drill['rehome_budget_matches']})"
            )
            continue
        if not drill.get("auto_promoted"):
            lines.append(
                f"  [{scenario}] seed {drill['seed']}: FAILED to heal "
                f"({drill.get('error', 'no promotion observed')})"
            )
            continue
        extra = ""
        if scenario == "partition":
            extra = (
                f", promotions={drill.get('promoted_lines')}"
                f", fence={drill.get('fencing_epoch')}"
            )
        lines.append(
            f"  [{scenario}] seed {drill['seed']}: promoted standby "
            f"{drill['promoted_index']} at lsn {drill['watermark_lsn']} "
            f"(detect {drill['detection_seconds']:.2f}s, promote "
            f"{drill['promotion_seconds']:.2f}s, bitwise="
            f"{drill['truths_match_bitwise']}, budget="
            f"{drill['budget_spent_matches']}{extra})"
        )
    inv = report["invariants"]
    watchdog = report["watchdog"]
    if watchdog["detection_seconds_max"] is not None:
        lines.append(
            f"worst detection {watchdog['detection_seconds_max']:.2f}s, "
            f"worst promotion {watchdog['promotion_seconds_max']:.2f}s"
        )
    rehome = report.get("rehome") or {}
    if rehome.get("rehome_seconds_max") is not None:
        lines.append(
            f"worst rehome {rehome['rehome_seconds_max']:.3f}s over "
            f"{rehome['rehomes_total']} rehome(s)"
        )
    lines.append(
        "invariants: "
        + ", ".join(f"{k}={v}" for k, v in sorted(inv.items()))
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded chaos drills against a live replicated "
        "topology: SIGKILL the primary under injected faults, wait for "
        "the watchdog to promote, verify the bitwise-truths and "
        "spent-budget invariants (exit 1 if any drill fails to heal)"
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="SEED",
        help="explicit drill seeds, applied to every selected scenario "
        "(default: --drills seeds derived from --base-seed)",
    )
    parser.add_argument(
        "--drills", type=int, default=5, metavar="N",
        help="promotion drills when --seeds is not given (default 5)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=2020,
        help="base seed the default drill seeds derive from",
    )
    parser.add_argument(
        "--claims", type=int, default=6000,
        help="claims streamed per drill (default 6000)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny pinned workload over the pinned CI seeds",
    )
    parser.add_argument(
        "--scenarios", nargs="+", default=None, choices=SCENARIOS,
        metavar="NAME",
        help="promotion (kill the primary, watchdog promotes), "
        "host-loss (kill a shard host with respawn blocked; shards "
        "re-home onto survivors), partition (watchdogs=3, one member "
        "network-partitioned; exactly one promotion).  Default: all",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the full report as JSON here ('-' or absent: don't)",
    )
    # Internal: the doomed-primary and partitioned-watchdog re-execs.
    parser.add_argument(
        "--run-primary", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--run-watchdog", nargs=argparse.REMAINDER, default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--seed", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--standbys", type=int, default=2,
                        help=argparse.SUPPRESS)
    parser.add_argument("--watchdogs", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--partition-watchdog", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_primary:
        return run_primary(args)
    if args.run_watchdog is not None:
        return run_watchdog(args.seed, args.run_watchdog)
    report = run_chaos_drill(
        seeds=args.seeds,
        drills=args.drills,
        base_seed=args.base_seed,
        claims=args.claims,
        smoke=args.smoke,
        scenarios=args.scenarios,
    )
    print(format_drill_summary(report))
    if args.output and args.output != "-":
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(report["invariants"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
