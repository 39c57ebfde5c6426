"""What a bulk chunk costs between admission and the fold, stage by stage.

A ``submit_columns`` chunk is admitted (copied and checked), cut into
micro-batches, encoded for the write-ahead log, staged and merged at
refresh, and folded into the streaming estimator.  This probe times each
stage in isolation on the library's own code, for 2 048-claim chunks of
one 200 x 48 CRH campaign (the ``bulk_durable`` shape: one batch per
chunk, four batches merged per refresh), and follows one chunk through a
live service to count the copies its claims go through:

    python benchmarks/probes/ingest_path.py [--quick]

Columns: µs per chunk (best of several repeats, wall clock, idle
process), array copies per claim (measured: a hop counts when the
claims' bytes leave the memory the previous stage held them in), and
full-column passes per claim (counted from the code, the operations
named in ``PASSES``; the fold's own arithmetic is not counted, its range
check is).  Compare rows, not runs on different machines.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.durable import records as rec  # noqa: E402
from repro.service.aggregator import StreamingAggregator  # noqa: E402
from repro.service.batcher import MicroBatcher  # noqa: E402
from repro.service.ingest import IngestService, ServiceConfig  # noqa: E402
from repro.truthdiscovery.streaming import StreamingCRH  # noqa: E402

USERS, OBJECTS, CHUNK, REFINE_EVERY = 200, 48, 2048, 8192
PER_REFRESH = REFINE_EVERY // CHUNK

#: Full-column passes per stage, as the code reads: (count, operation).
PASSES = {
    "admit": (6, "3 copies, 2 uint64 slot maxima, 1 isfinite"),
    "batch": (1, "views of the chunk, 1 bincount of user slots"),
    "log-encode": (2, "2 slot narrowings to u16"),
    "merge": (3, "3 concatenates"),
    "fold": (2, "2 uint64 range maxima"),
}


def best_us(call, calls: int, repeats: int) -> float:
    """Best of ``repeats`` timings of ``calls`` calls, µs per call."""
    call()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def chunk(rng):
    return (
        rng.integers(0, USERS, CHUNK),
        rng.integers(0, OBJECTS, CHUNK),
        rng.normal(size=CHUNK),
    )


def service():
    svc = IngestService(ServiceConfig(
        num_shards=1, max_batch=CHUNK, refine_every=REFINE_EVERY,
    ))
    svc.register_campaign(
        "probe", [f"o{i}" for i in range(OBJECTS)], max_users=USERS
    )
    return svc


def stage_times(rng, calls: int, repeats: int) -> dict:
    """µs per chunk of each stage, each on the library's own code."""
    users, objects, values = chunk(rng)
    svc = service()
    shard = svc._shards[0]

    def admit():
        svc.submit_columns("probe", users, objects, values)
        shard._queue.clear()  # never pumped: the queue must not fill

    # The pump's step for one admitted chunk: batcher, contributor
    # count, the shard's hand-off (aggregation stubbed out).
    admitted = (users.copy(), objects.copy(), values.copy())
    state = svc.campaign_state("probe")
    state.aggregator.ingest = lambda b: None
    (batch,) = MicroBatcher(CHUNK).add_columns(*admitted)
    prefix = rec.campaign_id_prefix("probe")

    aggregator = StreamingAggregator(
        USERS, OBJECTS, refine_every=REFINE_EVERY
    )
    merged = [None]  # the last merged batch only: no memory piles up

    def keep(b, **_):
        merged[0] = b

    aggregator._stream.ingest = keep

    def merge():
        for _ in range(PER_REFRESH - 1):
            aggregator.ingest(batch)
        aggregator.ingest(batch)  # the last one refreshes

    merge()
    stream = StreamingCRH(USERS, OBJECTS, decay=1.0)
    stream.ingest(merged[0])  # steady state: caches built
    times = {
        "admit": best_us(admit, calls, repeats),
        "batch": best_us(
            lambda: shard._add(state, *admitted), calls, repeats
        ),
        "log-encode": best_us(
            lambda: rec.encode_batch_parts(prefix, *admitted), calls, repeats
        ),
        "merge": best_us(merge, calls, repeats) / PER_REFRESH,
        "fold": best_us(lambda: stream.ingest(merged[0]), calls, repeats)
        / PER_REFRESH,
    }
    svc.close()
    return times


def copies_per_claim(rng) -> dict:
    """Follow one refresh's worth of chunks through a live service."""
    svc = service()
    state = svc.campaign_state("probe")
    shard = svc._shards[0]
    batches, merged = [], []
    ingest = state.aggregator.ingest
    state.aggregator.ingest = lambda b: (batches.append(b), ingest(b))
    fold = state.aggregator._stream.ingest
    state.aggregator._stream.ingest = (
        lambda b, **kw: (merged.append(b), fold(b, **kw))[1]
    )
    sent, queued = [], []
    for _ in range(PER_REFRESH):
        columns = chunk(rng)
        svc.submit_columns("probe", *columns)
        sent.append(columns)
        queued.append(shard._queue[-1][1:4])
    svc.pump()
    svc.close()

    def moved(after, before) -> float:
        """Share of claims whose bytes ``after`` holds in new memory."""
        claims = sum(len(cols[0]) for cols in after)
        copied = sum(
            len(cols[0]) for cols in after
            if not any(
                np.shares_memory(cols[0], prior[0]) for prior in before
            )
        )
        return copied / claims

    as_cols = [(b.users, b.objects, b.values) for b in batches]
    return {
        "admit": moved(queued, sent),
        "batch": moved(as_cols, queued),
        "log-encode": 0.0,  # the log reads the batch columns in place
        "merge": moved([(b.users,) for b in merged], as_cols),
        "fold": 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer repeats (~1 s)"
    )
    args = parser.parse_args(argv)
    calls, repeats = (20, 3) if args.quick else (200, 7)
    rng = np.random.default_rng(0)
    times = stage_times(rng, calls, repeats)
    copies = copies_per_claim(rng)
    print(f"# {CHUNK}-claim chunks, {USERS}x{OBJECTS} CRH, "
          f"max_batch {CHUNK}, refine_every {REFINE_EVERY}")
    print(f"{'stage':<11}{'us/chunk':>10}{'copies':>8}{'passes':>8}  passes are")
    for stage, us in times.items():
        count, what = PASSES[stage]
        print(f"{stage:<11}{us:>10.2f}{copies[stage]:>8.2f}{count:>8}  {what}")
    print(f"{'total':<11}{sum(times.values()):>10.2f}"
          f"{sum(copies.values()):>8.2f}"
          f"{sum(count for count, _ in PASSES.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
