"""Durable ingestion: crash a running campaign, recover it, finish it.

The ingestion service normally keeps all campaign state in memory — a
crash would lose every in-flight campaign.  This demo attaches the
``repro.durable`` write-ahead log and walks the full failure story:

1. a campaign streams claims through a WAL-attached service, with a
   privacy-budget ledger charging every submission and an automatic
   checkpoint partway through;
2. the process "crashes" mid-stream — the service object is abandoned
   with claims still flowing, nothing is shut down cleanly;
3. ``RecoveryManager`` rebuilds the service from the latest checkpoint
   plus the log suffix: truths, contributor weights, and spent budget
   all come back, and the recovered truths are *bit-for-bit* the ones
   an uncrashed service would hold;
4. the recovered service keeps serving: the rest of the stream goes in
   and the campaign finishes as if nothing happened.

Run:  PYTHONPATH=src python examples/durable_service.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.durable import DurabilityConfig, DurabilityManager, RecoveryManager
from repro.privacy.ldp import LDPGuarantee
from repro.service import (
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

CHUNK = 512


def build_service(directory: Path) -> tuple[IngestService, DurabilityManager]:
    manager = DurabilityManager(
        DurabilityConfig(
            directory=directory,
            fsync="batch",  # group commit at every pump
            checkpoint_every_claims=20_000,
        )
    )
    service = IngestService(
        ServiceConfig(num_shards=2, max_batch=CHUNK),
        ledger=BudgetLedger(epsilon_cap=50.0),
        topology=Topology.in_process(durability=manager),
    )
    return service, manager


def feed(service: IngestService, chunks) -> None:
    for chunk in chunks:
        service.submit_columns(
            chunk.campaign_id,
            chunk.user_slots,
            chunk.object_slots,
            chunk.values,
        )
        service.pump()


def main() -> None:
    directory = Path(tempfile.mkdtemp(prefix="repro-durable-demo-"))
    try:
        gen = LoadGenerator(
            "noise-map",
            num_users=250,
            num_objects=60,
            noise_std=0.4,
            random_state=2020,
        )
        chunks = list(gen.column_chunks(60_000, chunk_size=CHUNK))
        crash_at = len(chunks) // 2

        # -- phase 1: a durable campaign takes traffic ------------------
        service, manager = build_service(directory)
        service.register_campaign(
            gen.campaign_id,
            gen.object_ids,
            max_users=gen.num_users,
            user_ids=gen.user_ids,
            cost=LDPGuarantee(epsilon=0.001, delta=0.0),
        )
        feed(service, chunks[:crash_at])
        doomed = service.snapshot(gen.campaign_id)
        print("before the crash:   ", doomed.summary())
        print(
            f"durability so far:    {manager.claims_logged:,} claims in "
            f"{manager.batches_logged} logged batches, "
            f"{manager.checkpoints_written} checkpoint(s)"
        )

        # -- phase 2: the crash ----------------------------------------
        # No flush, no close — the process just dies.  Everything the
        # WAL group-committed survives; the in-memory service is gone.
        del service, manager
        print("\n*** crash: service process killed mid-stream ***\n")

        # -- phase 3: recovery -----------------------------------------
        recovered = RecoveryManager(directory).recover(resume=True)
        print("recovery:            ", recovered.report.summary())
        snapshot = recovered.service.snapshot(gen.campaign_id)
        print("after recovery:      ", snapshot.summary())
        identical = np.array_equal(doomed.truths, snapshot.truths)
        print(f"truths bit-for-bit identical to the doomed service: "
              f"{identical}")
        assert identical, "recovered truths diverged from the doomed service's!"
        spent = recovered.service.ledger.spent("user0")
        print(f"user0's recovered privacy spend: {spent}")

        # -- phase 4: the campaign finishes on the recovered service ----
        feed(recovered.service, chunks[crash_at:])
        recovered.service.flush()
        final = recovered.service.snapshot(gen.campaign_id)
        print("\nafter finishing:     ", final.summary())
        rmse = float(
            np.sqrt(np.mean((final.truths - gen.truths) ** 2))
        )
        print(f"RMSE vs ground truth: {rmse:.4f}")
        recovered.durability.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
