"""What a privacy-budget charge costs on each submit door.

``IngestService.submit_columns()`` charges every distinct user of a
costed chunk ``cost`` times their claim count, all or none, through the
``BudgetLedger``; ``submit()`` charges one ``cost`` per submission.
This probe times, in CPU µs per call of the door:

- ``uncosted_chunk``: a 2 048-claim chunk over 200 named users on a
  campaign without a ``cost`` (no ledger work, the floor);
- ``costed_chunk``: the same chunk on a campaign with a ``cost``;
- ``costed_chunk_durable``: that chunk with a write-ahead log at
  ``fsync="batch"``, so each charge is also recorded for the log;
- ``costed_submit``: one 8-claim protocol submission with a ``cost``.

    python benchmarks/probes/charge_cost.py [--quick]

The ledger's cap is large enough that nothing is refused.  Each chunk
call is timed alone and the service pumps after it, untimed;
submissions go in groups of 1 024 with one pump after each group.  Each
figure is the median of ``time.process_time()`` over calls (chunks) or
groups (submissions), after one warm-up round.  Compare a parent and a
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

from repro.crowdsensing.messages import ClaimSubmission  # noqa: E402
from repro.durable import DurabilityConfig  # noqa: E402
from repro.privacy.ldp import LDPGuarantee  # noqa: E402
from repro.service import (  # noqa: E402
    BudgetLedger,
    IngestService,
    ServiceConfig,
    Topology,
)

USERS, OBJECTS, CHUNK, CLAIMS, GROUP = 200, 64, 2048, 8, 1024
COST = LDPGuarantee(epsilon=0.5, delta=0.0)


def make_service(directory=None, *, cost=COST) -> IngestService:
    """One CRH campaign ``c`` of ``USERS`` named users on a service with
    a ledger that admits everything."""
    topology = None
    if directory is not None:
        topology = Topology.in_process(
            durability=DurabilityConfig(directory, fsync="batch")
        )
    service = IngestService(
        ServiceConfig(num_shards=1, max_batch=CHUNK),
        ledger=BudgetLedger(epsilon_cap=1e12),
        topology=topology,
    )
    service.register_campaign(
        "c", list(range(OBJECTS)), max_users=USERS,
        user_ids=[f"u{i}" for i in range(USERS)], method="crh", cost=cost,
    )
    return service


def time_chunks(service, chunks) -> float:
    """Median CPU µs of one ``submit_columns()`` call."""
    times = []
    for users, objects, values in chunks:
        t0 = time.process_time()
        result = service.submit_columns("c", users, objects, values)
        times.append((time.process_time() - t0) * 1e6)
        assert result.accepted == CHUNK, result
        service.pump()
    return statistics.median(times[1:])  # the first call is warm-up


def time_submits(service, subs) -> float:
    """Median CPU µs per ``submit()`` over groups of ``GROUP``."""
    times = []
    for i in range(0, len(subs), GROUP):
        group = subs[i:i + GROUP]
        t0 = time.process_time()
        for sub in group:
            service.submit(sub)
        times.append((time.process_time() - t0) / len(group) * 1e6)
        service.pump()
    return statistics.median(times[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer calls (~1 s)"
    )
    args = parser.parse_args(argv)
    calls, groups = (9, 3) if args.quick else (201, 21)
    rng = np.random.default_rng(4242)
    chunks = [
        (
            rng.integers(0, USERS, CHUNK),
            rng.integers(0, OBJECTS, CHUNK),
            rng.normal(size=CHUNK),
        )
        for _ in range(calls)
    ]
    subs = [
        ClaimSubmission(
            "c", f"u{rng.integers(USERS)}",
            tuple(int(o) for o in rng.choice(OBJECTS, CLAIMS, replace=False)),
            tuple(rng.normal(size=CLAIMS).tolist()),
        )
        for _ in range(groups * GROUP)
    ]
    print(f"# 1 CRH campaign x {USERS} named users x {OBJECTS} objects, "
          f"{CHUNK}-claim chunks, {CLAIMS}-claim submissions, "
          f"cost epsilon {COST.epsilon}")
    rows = {}
    with make_service(cost=None) as service:
        rows["uncosted_chunk"] = (time_chunks(service, chunks), "us/chunk")
    with make_service() as service:
        rows["costed_chunk"] = (time_chunks(service, chunks), "us/chunk")
    with tempfile.TemporaryDirectory() as tmp:
        with make_service(tmp) as service:
            rows["costed_chunk_durable"] = (
                time_chunks(service, chunks), "us/chunk"
            )
    with make_service() as service:
        rows["costed_submit"] = (time_submits(service, subs), "us/submission")
    for name, (value, unit) in rows.items():
        print(f"{name} {value:.2f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
