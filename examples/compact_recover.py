"""Group-commit durability, log compaction, and crash recovery.

The write-ahead log guarantees a crashed truth server comes back
bit-for-bit — but an append-only log grows forever.  This demo walks
the durable layer end to end:

1. a campaign streams claims through a service whose WAL stages each
   pump's records and commits them as one group on the pump thread
   (one ``writev`` and one fdatasync per pump under ``fsync="batch"``),
   so the durable-ack watermark (``durable_lsn``) reaches every
   appended record before the pump acknowledges it;
2. ``compact()`` rewrites the log down to its live records — the
   post-checkpoint suffix, the registration, and nothing else — behind
   an atomic temp-dir + rename + directory-fsync swap, reclaiming
   almost all of the log's disk footprint;
3. the process "crashes"; ``RecoveryManager`` rebuilds the service from
   the checkpoint plus the compacted log, and the recovered truths are
   *bit-for-bit* the ones the doomed service held;
4. for good measure, a compaction is crashed mid-swap at an injected
   fault point and recovery still comes back bitwise — the swap rolls
   forward or back, never half-way.

Run:  PYTHONPATH=src python examples/compact_recover.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.durable import (
    CompactionInterrupted,
    DurabilityConfig,
    DurabilityManager,
    RecoveryManager,
    compact_directory,
)
from repro.service import (
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

CHUNK = 512


def wal_bytes(directory: Path) -> int:
    return sum(
        p.stat().st_size
        for p in directory.rglob("wal-*.seg")
    )


def main() -> None:
    directory = Path(tempfile.mkdtemp(prefix="repro-compact-demo-"))
    try:
        gen = LoadGenerator(
            "city-noise",
            num_users=300,
            num_objects=80,
            noise_std=0.5,
            random_state=2020,
        )

        # -- phase 1: group-commit ingest -------------------------------
        manager = DurabilityManager(
            DurabilityConfig(
                directory=directory,
                fsync="batch",  # one group commit per pump
                checkpoint_every_claims=25_000,
            )
        )
        service = IngestService(
            ServiceConfig(num_shards=2, max_batch=CHUNK),
            topology=Topology.in_process(durability=manager),
        )
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=gen.num_users,
            user_ids=gen.user_ids,
        )
        for chunk in gen.column_chunks(80_000, chunk_size=CHUNK):
            service.submit_columns(
                chunk.campaign_id,
                chunk.user_slots,
                chunk.object_slots,
                chunk.values,
            )
            service.pump()
        service.flush()
        doomed = service.snapshot(gen.campaign_id)
        stats = service.stats
        print("ingested:            ", doomed.summary())
        print(
            f"WAL appends:          {stats.wal_appends} records in "
            f"{stats.wal_commit_groups} group commits on the pump thread "
            f"(durable-lsn lag at last pump: {stats.wal_durable_lag})"
        )

        # -- phase 2: claim-granular compaction -------------------------
        before = wal_bytes(directory)
        report = manager.compact()  # checkpoint, then rewrite live records
        print(
            f"compaction:           {report.records_before} -> "
            f"{report.records_after} records, {before:,} -> "
            f"{wal_bytes(directory):,} WAL bytes "
            f"({report.bytes_reclaimed:,} reclaimed)"
        )

        # -- phase 3: crash + recovery ----------------------------------
        del service, manager  # no close: the process just dies
        print("\n*** crash: service process killed ***\n")
        recovered = RecoveryManager(directory).recover()
        print("recovery:            ", recovered.report.summary())
        snapshot = recovered.service.snapshot(gen.campaign_id)
        identical = np.array_equal(doomed.truths, snapshot.truths)
        print(f"truths bit-for-bit identical after compaction: {identical}")
        assert identical, "truths diverged after compaction!"

        # -- phase 4: a compaction crash mid-swap is survivable ---------
        try:
            compact_directory(directory, fault="after-rename")
        except CompactionInterrupted as exc:
            print(f"\ninjected mid-swap crash: {exc}")
        re_recovered = RecoveryManager(directory).recover()
        again = re_recovered.service.snapshot(gen.campaign_id)
        survived = np.array_equal(doomed.truths, again.truths)
        print(f"truths bit-for-bit identical after torn compaction: "
              f"{survived}")
        assert survived, "truths diverged after a torn compaction!"
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
