"""What one primary read costs: ``IngestService.snapshot`` in process.

A *dirty* read follows new claims: it flushes its campaign's tail,
folds what the aggregator staged (``StreamingEstimator`` fold plus its
``refine_sweeps`` sweeps) and builds a fresh ``TruthSnapshot``.  A
*clean* read finds nothing new and returns the last snapshot again.
This probe prints the median µs of each, with a dirty read split into
the estimator's fold-and-sweeps and the rest of the read path:

    python benchmarks/probes/primary_read.py [--quick]

Two shapes:

* ``read_mix``: one CRH, one GTM and one CATD campaign of 400 users x
  64 objects; each round submits one 2 048-claim chunk per campaign
  through ``submit_columns``, pumps, reads every campaign (dirty) and
  reads each again (clean) — the e2e benchmark's ``read_mix`` loop,
  one row per method.
* ``device_submit``: four CRH campaigns of 2 000 users x 64 objects
  after 4 096 8-claim submissions each; users get a slot when they
  first submit, so every slot has contributed (contributors are the
  tuple form).  A dirty read follows one ``submit()`` and a pump, a
  clean one nothing.

Times are wall µs from ``time.perf_counter()``, medians over reads.
The split wraps ``StreamingEstimator.ingest``, the aggregator's one
call into the estimator (it also copies the truths it returns).
Compare a parent and a change run alternately on one machine, each from
its own checkout; the medians move with the machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.service import IngestService, LoadGenerator, ServiceConfig  # noqa: E402
from repro.truthdiscovery.streaming import StreamingEstimator  # noqa: E402

READ_METHODS, READ_USERS, READ_OBJECTS, CHUNK = ("crh", "gtm", "catd"), 400, 64, 2048
DEVICE_CAMPAIGNS, DEVICE_USERS, DEVICE_OBJECTS = 4, 2000, 64


class FoldTimer:
    """Seconds spent in ``StreamingEstimator.ingest`` since the last
    :meth:`take` (installed on the class, removed by :meth:`close`)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        original = self._original = StreamingEstimator.ingest

        def timed(stream, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(stream, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        StreamingEstimator.ingest = timed

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds

    def close(self) -> None:
        StreamingEstimator.ingest = self._original


def timed_read(service, campaign_id: str, fold: FoldTimer) -> tuple[float, float]:
    """``(read seconds, fold seconds within it)`` of one snapshot."""
    fold.take()
    start = time.perf_counter()
    service.snapshot(campaign_id)
    return time.perf_counter() - start, fold.take()


def read_mix(rounds: int, fold: FoldTimer) -> dict:
    """Per method: dirty/clean read samples and fold samples."""
    gens = [
        LoadGenerator(f"read-{m}", num_users=READ_USERS, num_objects=READ_OBJECTS,
                      random_state=np.random.SeedSequence([9001, i]))
        for i, m in enumerate(READ_METHODS)
    ]
    chunks = [list(g.column_chunks(64 * CHUNK, chunk_size=CHUNK)) for g in gens]
    service = IngestService(ServiceConfig(num_shards=4, max_batch=CHUNK))
    samples = {m: {"dirty": [], "fold": [], "clean": []} for m in READ_METHODS}
    try:
        for gen, method in zip(gens, READ_METHODS):
            service.register_campaign(gen.campaign_id, gen.object_ids,
                                      max_users=gen.num_users, method=method)
        for r in range(rounds):
            for pool in chunks:
                c = pool[r % len(pool)]
                service.submit_columns(c.campaign_id, c.user_slots, c.object_slots, c.values)
            service.pump()
            warm = r < rounds // 8
            for gen, method in zip(gens, READ_METHODS):
                read, folded = timed_read(service, gen.campaign_id, fold)
                if not warm:
                    samples[method]["dirty"].append(read)
                    samples[method]["fold"].append(folded)
            for gen, method in zip(gens, READ_METHODS):
                read, _ = timed_read(service, gen.campaign_id, fold)
                if not warm:
                    samples[method]["clean"].append(read)
    finally:
        service.close()
    return samples


def device(reads: int, fold: FoldTimer) -> dict:
    """Dirty/clean read samples over the device_submit shape."""
    gens = [
        LoadGenerator(f"dev-c{i}", num_users=DEVICE_USERS, num_objects=DEVICE_OBJECTS,
                      random_state=np.random.SeedSequence([777, i]))
        for i in range(DEVICE_CAMPAIGNS)
    ]
    service = IngestService(ServiceConfig(num_shards=4, max_batch=1024))
    samples = {"dirty": [], "fold": [], "clean": []}
    try:
        for gen in gens:
            service.register_campaign(gen.campaign_id, gen.object_ids,
                                      max_users=gen.num_users, method="crh")
        per = [gen.submissions(4096) for gen in gens]
        pool = [sub for group in zip(*per) for sub in group]
        for sub in pool:
            service.submit(sub)
        service.pump()
        ids = [gen.campaign_id for gen in gens]
        for cid in ids:
            service.snapshot(cid)
        for i in range(reads):
            sub = pool[i % len(pool)]
            service.submit(sub)
            service.pump()
            read, folded = timed_read(service, sub.campaign_id, fold)
            samples["dirty"].append(read)
            samples["fold"].append(folded)
            read, _ = timed_read(service, sub.campaign_id, fold)
            samples["clean"].append(read)
    finally:
        service.close()
    return samples


def row(label: str, samples: dict) -> str:
    dirty = statistics.median(samples["dirty"]) * 1e6
    fold = statistics.median(samples["fold"]) * 1e6
    rest = statistics.median(d - f for d, f in zip(samples["dirty"], samples["fold"])) * 1e6
    clean = statistics.median(samples["clean"]) * 1e6
    return f"{label:<14} {dirty:9.1f} {fold:9.1f} {rest:9.1f} {clean:9.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer reads (~1 s)")
    args = parser.parse_args(argv)
    rounds, reads = (48, 400) if args.quick else (600, 4000)
    print(f"# median wall us per read; read_mix: {rounds} rounds of one "
          f"{CHUNK}-claim chunk per campaign ({READ_USERS}x{READ_OBJECTS}); "
          f"device: {reads} reads ({DEVICE_CAMPAIGNS}x{DEVICE_USERS}x{DEVICE_OBJECTS} crh)")
    print(f"# {'shape':<12} {'dirty':>9} {'fold':>9} {'rest':>9} {'clean':>9}")
    fold = FoldTimer()
    try:
        for method, samples in read_mix(rounds, fold).items():
            print(row(f"read_mix.{method}", samples))
        print(row("device", device(reads, fold)))
    finally:
        fold.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
