"""CI smoke: SIGKILL the primary mid-stream, promote the standby.

The harshest replication scenario, run for real with processes:

1. launch one ``repro standby`` subprocess;
2. launch a *primary driver* child (this script re-exec'd with
   ``--run-primary``) that builds a durable ``IngestService`` with a
   budget ledger, ships its WAL to the standby, serves ``/metrics``,
   and streams claims indefinitely;
3. scrape the primary's live replication telemetry mid-stream
   (``repro_replication_*`` families, via ``scrape_check``);
4. ``SIGKILL`` the primary — no flush, no close, no goodbye;
5. promote the standby over :class:`ReplicaReadClient` and assert the
   promoted truths are *bitwise equal* to an independent replay of the
   dead primary's WAL at the replicated watermark, and that every
   spent privacy-budget record survived.

Exit codes: 0 all invariants hold, 1 an invariant failed, 2 setup
error.

Usage::

    PYTHONPATH=src python benchmarks/replication_smoke.py [--chunks 64]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

CHUNK = 256
NUM_USERS = 60
NUM_OBJECTS = 24
SEED = 97
CAMPAIGN = "smoke-replicated"

#: Replication families the live primary must expose mid-stream.
#: (Lag gauges are asserted present separately: a caught-up standby
#: legitimately reports zero lag, and the scrape gate requires
#: non-zero activity.)
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


def make_generator():
    from repro.service.loadgen import LoadGenerator

    return LoadGenerator(
        CAMPAIGN,
        num_users=NUM_USERS,
        num_objects=NUM_OBJECTS,
        random_state=SEED,
    )


# ----------------------------------------------------------------------
# Child: the primary that is going to die.
def run_primary(args) -> int:
    from repro.durable import DurabilityConfig, DurabilityManager
    from repro.obs.exposition import MetricsServer
    from repro.privacy.ldp import LDPGuarantee
    from repro.replication.sender import ReplicationSender
    from repro.service.ingest import IngestService, ServiceConfig
    from repro.service.ledger import BudgetLedger
    from repro.service.topology import Topology

    manager = DurabilityManager(
        DurabilityConfig(directory=args.dir, fsync="batch")
    )
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=CHUNK),
        ledger=BudgetLedger(epsilon_cap=1e6),
        topology=Topology.in_process(durability=manager),
    )
    sender = ReplicationSender([("127.0.0.1", args.standby_port)])
    manager.attach_replication(sender)
    metrics = MetricsServer(port=args.metrics_port)
    metrics.set_provider(service.metrics_snapshot)
    print(f"METRICS {metrics.url}", flush=True)

    gen = make_generator()
    service.register_campaign(
        gen.campaign_id,
        gen.object_ids,
        max_users=NUM_USERS,
        user_ids=gen.user_ids,
        cost=LDPGuarantee(epsilon=1e-4, delta=0.0),
    )
    # Stream slowly enough that the parent reliably kills us
    # mid-stream; a real primary would not sleep, but a real primary
    # is not scheduled for execution either.
    for i, chunk in enumerate(
        gen.column_chunks(args.chunks * CHUNK, chunk_size=CHUNK)
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
        time.sleep(0.05)
    # Only reached if the parent never killed us — that is a failure
    # of the harness, not of replication.
    print("STREAM-EXHAUSTED", flush=True)
    service.close()
    return 0


# ----------------------------------------------------------------------
# Parent: orchestrate, kill, promote, verify.
def replay_primary_prefix(directory: Path, up_to_lsn: int):
    """Independently rebuild the dead primary's state at ``up_to_lsn``.

    Same record-application path the standby used
    (:class:`RecordApplier`), driven straight off the dead primary's
    segments — an arbiter that shares no process with either side of
    the replication stream.
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


def check(ok: bool, label: str, failures: list) -> None:
    print(f"  {'ok' if ok else 'FAIL':>4}  {label}")
    if not ok:
        failures.append(label)


def run_smoke(args) -> int:
    import scrape_check

    from repro.obs.exposition import try_scrape
    from repro.replication.client import ReplicaReadClient
    from repro.replication.pool import launch_standby

    root = Path(tempfile.mkdtemp(prefix="repro-repl-smoke-"))
    primary_dir = root / "wal"
    standby_dir = root / "standby"
    failures: list = []

    print("== launching standby + doomed primary ==")
    standby_proc, standby_port = launch_standby(standby_dir)
    child = subprocess.Popen(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--run-primary",
            "--dir",
            str(primary_dir),
            "--standby-port",
            str(standby_port),
            "--metrics-port",
            str(args.metrics_port),
            "--chunks",
            str(args.chunks),
        ],
        env={**os.environ},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        metrics_url = None
        deadline = time.monotonic() + 120.0
        for line in child.stdout:
            line = line.strip()
            if line.startswith("METRICS "):
                metrics_url = line.split(" ", 1)[1]
            if line == "STREAMING":
                break
            if time.monotonic() > deadline:
                print("primary never started streaming", file=sys.stderr)
                return 2
        if metrics_url is None:
            print("primary never announced /metrics", file=sys.stderr)
            return 2

        print("\n== mid-stream telemetry ==")
        scrape_rc = scrape_check.check_endpoint(
            metrics_url, ACTIVE_FAMILIES, retries=60, interval=0.25
        )
        check(scrape_rc == 0, "replication families live and non-zero",
              failures)
        snapshot = try_scrape(metrics_url)
        names = set() if snapshot is None else snapshot.names()
        for family in LAG_FAMILIES:
            check(family in names, f"{family} gauge exposed", failures)

        # Let the stream run a little longer, then pull the plug.
        with ReplicaReadClient(("127.0.0.1", standby_port)) as client:
            deadline = time.monotonic() + 60.0
            while client.status()["durable_lsn"] < 40:
                if time.monotonic() > deadline:
                    print("standby never caught records", file=sys.stderr)
                    return 2
                time.sleep(0.05)

            print("\n== SIGKILL the primary mid-stream ==")
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30.0)
            print(f"  primary pid {child.pid} killed "
                  f"(returncode {child.returncode})")

            print("\n== promote the standby ==")
            report = client.promote()
            watermark = report["watermark_lsn"]
            promoted = client.snapshot(CAMPAIGN)
            status = client.status()
        print(f"  promoted at replicated watermark LSN {watermark} "
              f"in {report['seconds'] * 1e3:.1f} ms")

        print("\n== invariants ==")
        arbiter = replay_primary_prefix(primary_dir, watermark)
        crashed = arbiter.snapshot(CAMPAIGN)
        check(
            promoted.truths.tobytes() == crashed.truths.tobytes()
            and np.all(np.isfinite(promoted.truths)),
            "promoted truths bitwise-equal dead primary @ watermark",
            failures,
        )
        check(
            promoted.claims_ingested == crashed.claims_ingested
            and promoted.claims_ingested > 0,
            f"claims preserved ({promoted.claims_ingested})",
            failures,
        )
        check(
            promoted.weights_by_user == crashed.weights_by_user,
            "user weights bitwise-equal",
            failures,
        )
        spent = status["ledger"]["records"]
        check(
            len(spent) > 0
            and ledger_key(spent)
            == ledger_key(arbiter.ledger.to_records()),
            f"spent budget preserved ({len(spent)} users)",
            failures,
        )
        check(status["promoted"] is True, "standby reports promoted",
              failures)

        if failures:
            print(f"\n{len(failures)} invariant(s) FAILED",
                  file=sys.stderr)
            return 1
        print("\nreplication smoke: all invariants hold")
        return 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        if child.stdout is not None:
            child.stdout.close()
        standby_proc.terminate()
        standby_proc.join(10.0)
        if standby_proc.is_alive():  # pragma: no cover - last resort
            standby_proc.kill()
            standby_proc.join(2.0)
        standby_proc.release()
        import shutil

        shutil.rmtree(root, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="kill-the-primary replication smoke test"
    )
    parser.add_argument(
        "--chunks", type=int, default=256,
        help="chunks the primary would stream if allowed to live",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=9311,
        help="port of the doomed primary's /metrics endpoint",
    )
    parser.add_argument(
        "--run-primary", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--standby-port", type=int, default=0, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.run_primary:
        return run_primary(args)
    return run_smoke(args)


if __name__ == "__main__":
    sys.exit(main())
