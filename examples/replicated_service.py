"""WAL-shipping replication: warm standbys, replica reads, promotion.

A durable primary is one fsync away from its truths — but still one
process away from losing its *availability*.  This demo deploys the
topology the ``repro.replication`` package exists for:

1. ``Topology.replicated(standbys=1)`` starts the primary's
   write-ahead log shipping to a warm standby (a ``repro standby``
   subprocess) as part of ordinary service construction;
2. claims stream through the primary; committed frames are shipped
   post-fsync in groups of up to 2 MiB — the WAL's own frames, sent
   from the segment file with ``sendfile`` — and a group that is not
   full ships once a caller waits on it or its oldest frame has waited
   0.1 s.  The standby verifies each frame, stores it
   unchanged and acks only after *its own* fsync, then replays it into
   live aggregators: its log is the primary's bytes;
3. the standby serves snapshot reads over :class:`ReplicaReadClient`
   while the primary keeps ingesting — reads that never touch the
   primary's log.  A re-read of a campaign no shipped record touched
   is answered empty: a reply's version is the campaign's own read
   key, not the standby's position in the log;
4. the primary is abandoned mid-conversation (nothing shut down
   cleanly) and the standby is *promoted*: it comes back as a primary
   whose truths are bit-for-bit the crashed one's at the replicated
   watermark, with every spent privacy-budget cent staying spent.

Run:  PYTHONPATH=src python examples/replicated_service.py
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.durable import DurabilityConfig, DurabilityManager, RecoveryManager
from repro.durable.wal import SEGMENT_MAGIC, list_segments, split_frames
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

CHUNK = 512
CLAIMS = 30_000
#: How long the demo waits for the standby to ack the primary's log.
WAIT_SECONDS = 60.0


def frames_up_to(directory: Path, lsn: int) -> bytes:
    """A log's frames at or below ``lsn``, segment magics stripped."""
    stream = b"".join(
        seg.read_bytes()[len(SEGMENT_MAGIC):] for seg in list_segments(directory)
    )
    return b"".join(f.frame for f in split_frames(stream) if f.lsn <= lsn)


def feed(service, gen, claims: int) -> None:
    for i, chunk in enumerate(gen.column_chunks(claims, chunk_size=CHUNK)):
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        if i % 8 == 7:
            service.pump()


def replicate(service, manager) -> int:
    """Flush, commit, and wait until the standby acked it all; returns
    the watermark."""
    service.flush()
    manager.sync()
    watermark = manager.wal.durable_lsn
    sender = service.replication
    # Asking ships the group the link holds now, not after its hold.
    deadline = time.monotonic() + WAIT_SECONDS
    sender.wait_replicated(watermark, timeout=WAIT_SECONDS)
    while sender.min_ack_lsn() < watermark:
        if time.monotonic() > deadline:
            lag = sender.stats()["standbys"][0]
            raise RuntimeError(
                f"standby still {lag['lag_lsn']} LSNs "
                f"({lag['lag_seconds']:.1f} s) behind the primary's "
                f"LSN {watermark} after {WAIT_SECONDS:.0f} s"
            )
        time.sleep(0.02)
    return watermark


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-replicated-"))
    primary_dir = root / "wal"
    gen = LoadGenerator(
        "city-air-quality",
        num_users=120,
        num_objects=48,
        random_state=7,
    )
    # A second campaign, fed on its own while the first stays quiet.
    noise = LoadGenerator(
        "city-noise", num_users=60, num_objects=24, random_state=11
    )

    print("== primary + 1 warm standby ==")
    manager = DurabilityManager(
        DurabilityConfig(directory=primary_dir, fsync="batch")
    )
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=CHUNK),
        ledger=BudgetLedger(epsilon_cap=100.0),
        topology=Topology.replicated(standbys=1, durability=manager),
    )
    try:
        for each in (gen, noise):
            service.register_campaign(
                each.campaign_id,
                each.object_ids,
                max_users=each.num_users,
                user_ids=each.user_ids,
                method="crh",
                cost=LDPGuarantee(epsilon=0.001, delta=0.0),
            )
        feed(service, gen, CLAIMS)
        feed(service, noise, CLAIMS // 10)
        watermark = replicate(service, manager)
        sender = service.replication
        link = sender.stats()["standbys"][0]
        print(
            f"  shipped {link['records_shipped']} records "
            f"({link['bytes_shipped']:,} bytes) to the standby, "
            f"lag {link['lag_lsn']} LSNs"
        )
        shipped = frames_up_to(primary_dir, watermark)
        same_log = frames_up_to(service.standbys.handles[0].directory, watermark) == shipped
        print(
            f"  standby log {'is' if same_log else 'is NOT'} the primary's "
            f"{len(shipped):,} frame bytes up to LSN {watermark}"
        )
        assert same_log, "standby log differs from the primary's!"

        print("\n== replica reads while the primary ingests ==")
        primary_snap = service.snapshot(gen.campaign_id)
        with service.standbys.handles[0].client() as replica:
            replica_snap = replica.snapshot(gen.campaign_id)
            match = np.array_equal(
                primary_snap.truths, replica_snap.truths
            )
            print(
                f"  replica claims={replica_snap.claims_ingested}, "
                f"truths bitwise "
                f"{'equal to primary' if match else 'DIFFER'}"
            )
            assert match, "replica truths diverged from the primary's!"

            # Ship records for the noise campaign only: the quiet
            # campaign's re-read must be an empty reply.
            feed(service, noise, CLAIMS // 10)
            replicate(service, manager)
            empty = replica.status()["reads_unchanged"]
            again = replica.snapshot(gen.campaign_id)
            quiet = replica.status()["reads_unchanged"] == empty + 1
            print(
                f"  re-read of {gen.campaign_id!r} after "
                f"{noise.campaign_id!r}-only records: "
                f"{'empty reply' if quiet else 'FULL reply'}"
            )
            assert quiet and again is replica_snap, (
                "a campaign no record touched was re-sent whole!"
            )

            print("\n== crash the primary, promote the standby ==")
            spent_before = service.ledger.to_records()
            # Abandon the primary: the sender stops shipping, nothing
            # else is shut down cleanly.
            sender.close()
            report = replica.promote()
            promoted = replica.snapshot(gen.campaign_id)
            status = replica.status()
        recovered = RecoveryManager(primary_dir).recover()
        try:
            crashed = recovered.service.snapshot(gen.campaign_id)
            print(
                f"  promoted in {report['seconds']*1e3:.1f} ms at "
                f"LSN {report['watermark_lsn']}"
            )
            same_truths = np.array_equal(promoted.truths, crashed.truths)
            print(
                f"  truths bitwise {'equal' if same_truths else 'DIFFER'}"
                f" to the crashed primary's recovered state"
            )
            assert same_truths, "promoted truths diverged from the primary's!"
            same_budget = sorted(
                (r["user_id"], r["epsilon"]) for r in spent_before
            ) == sorted(
                (r["user_id"], r["epsilon"])
                for r in status["ledger"]["records"]
            )
            print(
                f"  spent budget "
                f"{'preserved' if same_budget else 'LOST'} across the "
                f"promotion ({len(status['ledger']['records'])} users)"
            )
            assert same_budget, "spent budget lost across the promotion!"
        finally:
            if recovered.durability is not None:
                recovered.durability.close()
    finally:
        service.close()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
