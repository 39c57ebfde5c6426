"""What one protocol submission costs on the device path.

``IngestService.submit()`` validates, admits and queues one 8-claim
``ClaimSubmission``; ``pump()`` then builds the queued claims into
columns, batches and folds them.  This probe drives the
``device_submit`` shape (4 CRH campaigns x 2 000 users x 64 objects,
8-claim submissions interleaved over the campaigns, a ledger that admits
everything) through a live service and prints CPU µs per submission for
each half:

    python benchmarks/probes/submit_cost.py [--quick] [--durable]

``--durable`` adds the device path of ``device_paced_durable``: a
write-ahead log at ``fsync="batch"`` with one group commit per pump,
and prints the log records each pump wrote too, so the cost of logging
charges is counted rather than estimated.  Its CPU figures include each
pump's fdatasync, so they move with the disk as well as the machine.

Submissions go in groups of 1 024 with one pump after each group, over
the pool several times; the first pass is warm-up.  Each figure is the
median over groups of ``time.process_time()``.  Compare a parent and a
change run alternately on one machine, each from its own checkout; the
medians move with the machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.durable import DurabilityConfig  # noqa: E402
from repro.privacy.ldp import LDPGuarantee  # noqa: E402
from repro.service import (  # noqa: E402
    BudgetLedger,
    IngestService,
    LoadGenerator,
    ServiceConfig,
    Topology,
)

CAMPAIGNS, USERS, OBJECTS, CLAIMS = 4, 2000, 64, 8
GROUP = 1024
COST = LDPGuarantee(epsilon=0.5, delta=0.0)


def device_pool(seed: int, per_campaign: int):
    """Generators and their submissions, round-robin over campaigns."""
    gens = [
        LoadGenerator(
            f"dev-c{i}", num_users=USERS, num_objects=OBJECTS,
            claims_per_submission=CLAIMS, lambda2=1.0,
            random_state=np.random.SeedSequence([seed, i]),
        )
        for i in range(CAMPAIGNS)
    ]
    per = [g.submissions(per_campaign) for g in gens]
    return gens, [sub for group in zip(*per) for sub in group]


def measure(gens, pool, passes: int, directory=None) -> dict:
    """Median CPU µs per submission of ``submit()`` and ``pump()``."""
    topology = None
    if directory is not None:
        topology = Topology.in_process(
            durability=DurabilityConfig(directory, fsync="batch")
        )
    service = IngestService(
        ServiceConfig(num_shards=4, max_batch=1024),
        ledger=BudgetLedger(epsilon_cap=1e9),
        topology=topology,
    )
    try:
        for gen in gens:
            service.register_campaign(
                gen.campaign_id, gen.object_ids, max_users=gen.num_users,
                method="crh", cost=COST,
            )
        wal = None if directory is None else service.durability.wal
        submit, sub, pump, records = service.submit, [], [], []
        for rep in range(passes + 1):  # the first pass is warm-up
            for i in range(0, len(pool), GROUP):
                n0 = 0 if wal is None else wal.records_written
                t0 = time.process_time()
                for s in pool[i:i + GROUP]:
                    submit(s)
                t1 = time.process_time()
                service.pump()
                t2 = time.process_time()
                if rep:
                    sub.append((t1 - t0) / GROUP * 1e6)
                    pump.append((t2 - t1) / GROUP * 1e6)
                    if wal is not None:
                        records.append(wal.records_written - n0)
    finally:
        service.close()
    out = {"submit": statistics.median(sub), "pump": statistics.median(pump)}
    if records:
        out["records"] = statistics.median(records)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="a smaller pool, one pass (~1 s)"
    )
    parser.add_argument(
        "--durable", action="store_true",
        help='log to a write-ahead log at fsync="batch"',
    )
    args = parser.parse_args(argv)
    per_campaign, passes = (512, 1) if args.quick else (4096, 3)
    gens, pool = device_pool(777, per_campaign)
    print(f"# {CAMPAIGNS} CRH campaigns x {USERS} users x {OBJECTS} objects, "
          f"{CLAIMS}-claim submissions, pump every {GROUP}, "
          f"{'durable (fsync=batch)' if args.durable else 'volatile'}")
    with tempfile.TemporaryDirectory() as tmp:
        result = measure(gens, pool, passes, tmp if args.durable else None)
    print(f"submit {result['submit']:.2f} us/submission")
    print(f"pump {result['pump']:.2f} us/submission")
    if "records" in result:
        print(f"wal {result['records']:.0f} records/pump")
    return 0


if __name__ == "__main__":
    sys.exit(main())
