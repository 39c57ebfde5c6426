"""CI helper: scrape a live metrics endpoint and assert it is healthy.

Polls a running ``/metrics`` endpoint (any
:class:`repro.obs.MetricsServer`) until every required metric family is
present *and* carries a non-zero value, or the retry budget runs out.
``benchmarks/replication_smoke.py`` calls :func:`check_endpoint` against
its doomed primary mid-stream; standalone::

    python benchmarks/scrape_check.py http://127.0.0.1:9109/metrics

Exit codes: 0 healthy, 1 families missing/zero after all retries,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.obs.exposition import try_scrape

#: Families every instrumented service run must populate: admission,
#: per-shard acceptance, processing, and the two hot-path latency
#: histograms.  Histograms count observations; counters their value.
DEFAULT_FAMILIES = (
    "repro_submissions_total",
    "repro_claims_accepted_total",
    "repro_claims_processed_total",
    "repro_batch_flush_seconds",
    "repro_queue_wait_seconds",
)


def family_activity(snapshot, family: str) -> float:
    """Total activity of a family: counter/gauge sum or histogram count."""
    total = sum(
        value
        for (name, _), value in snapshot.counters.items()
        if name == family
    )
    total += sum(
        value
        for (name, _), value in snapshot.gauges.items()
        if name == family
    )
    total += sum(
        hist["count"]
        for (name, _), hist in snapshot.histograms.items()
        if name == family
    )
    return total


def check_endpoint(
    url: str,
    families: Sequence[str],
    *,
    retries: int = 60,
    interval: float = 0.5,
) -> int:
    """Poll until every family is present and non-zero; 0 on success."""
    last_missing: list = list(families)
    connected = False
    for _ in range(max(retries, 1)):
        snapshot = try_scrape(url)
        if snapshot is None:
            time.sleep(interval)
            continue
        connected = True
        last_missing = [
            family
            for family in families
            if family_activity(snapshot, family) <= 0
        ]
        if not last_missing:
            print(f"scrape ok: {url}")
            for family in families:
                print(
                    f"  {family:<42} "
                    f"{family_activity(snapshot, family):g}"
                )
            extra = sorted(snapshot.names() - set(families))
            print(f"  (+{len(extra)} other families live)")
            return 0
        time.sleep(interval)
    if not connected:
        print(f"never reached {url}", file=sys.stderr)
    else:
        print(
            f"families missing or zero after {retries} scrapes: "
            f"{', '.join(last_missing)}",
            file=sys.stderr,
        )
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert a live metrics endpoint serves non-zero "
        "telemetry families",
    )
    parser.add_argument("url", help="metrics endpoint URL")
    parser.add_argument(
        "--families",
        default=",".join(DEFAULT_FAMILIES),
        help="comma-separated required family names "
        "(default: the core service families)",
    )
    parser.add_argument(
        "--retries", type=int, default=60,
        help="scrape attempts before giving up (default 60)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between attempts (default 0.5)",
    )
    args = parser.parse_args(argv)
    families = [f for f in args.families.split(",") if f]
    if not families:
        print("no families to check", file=sys.stderr)
        return 2
    return check_endpoint(
        args.url, families, retries=args.retries, interval=args.interval
    )


if __name__ == "__main__":
    sys.exit(main())
