"""Where a dense fold starts to pay: sparse vs dense fold µs by density.

A streaming estimator folds a batch densely once it holds at least one
claim per ``_DENSE_FOLD_CELLS`` cells (``repro.truthdiscovery.
streaming``).  The two folds give the same bits; only their cost
differs, and only in how CRH refreshes its per-cell ``sums**2 / counts``
cache: per claim (gather and scatter) or in one pass over every cell.
This probe times ``StreamingCRH._fold`` both ways, plus the two ways of
adding a batch's claim counts (``np.add.at`` and ``np.bincount``), at
200 x 48, 400 x 64 and 2000 x 64 across claims/cells ratios, and prints
the smallest measured ratio at which the dense fold is the cheaper one.

    python benchmarks/probes/fold_crossover.py [--quick]

Times are the best of several repeats of wall-clock µs per call on an
idle process; compare rows, not runs on different machines.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.truthdiscovery import streaming  # noqa: E402

SHAPES = ((200, 48), (400, 64), (2000, 64))
RATIOS = (0.1, 0.2, 0.25, 0.3, 0.33, 0.4, 0.5, 0.75, 1.0, 2.0)
QUICK_RATIOS = (0.1, 0.33, 1.0)


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


def measure(num_users, num_objects, ratio, *, budget, repeats, rng):
    """``(claims, sparse, dense, add_at, bincount)`` at one density."""
    cells = num_users * num_objects
    claims = max(1, round(cells * ratio))
    users = rng.integers(0, num_users, claims)
    objects = rng.integers(0, num_objects, claims)
    batch = streaming.ClaimBatch(users, objects, rng.normal(size=claims))
    stream = streaming.StreamingCRH(num_users, num_objects, decay=1.0)
    stream.ingest(batch)  # allocates the cache the folds refresh
    flat = users * num_objects + objects
    values = batch.values
    counts = np.zeros(cells)
    calls = max(3, budget // claims)

    def fold(dense_from):
        # The fold reads the module constant on every call: 0 keeps
        # every batch sparse, ``cells`` makes every batch dense.
        def call():
            streaming._DENSE_FOLD_CELLS = dense_from
            try:
                stream._fold(flat, values)
            finally:
                streaming._DENSE_FOLD_CELLS = threshold
        return call

    threshold = streaming._DENSE_FOLD_CELLS
    return (
        claims,
        best_us(fold(0), calls, repeats),
        best_us(fold(cells), calls, repeats),
        best_us(lambda: np.add.at(counts, flat, 1.0), calls, repeats),
        best_us(
            lambda: np.add(counts, np.bincount(flat, minlength=cells),
                           out=counts),
            calls, repeats,
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="three ratios, one repeat budget a tenth as large (seconds)",
    )
    args = parser.parse_args(argv)
    ratios = QUICK_RATIOS if args.quick else RATIOS
    budget, repeats = (20_000, 2) if args.quick else (400_000, 5)
    rng = np.random.default_rng(0)
    print(f"dense fold from claims * {streaming._DENSE_FOLD_CELLS} >= cells")
    print(f"{'shape':>9} {'claims/cells':>12} {'claims':>7} "
          f"{'sparse us':>10} {'dense us':>9} {'add.at us':>10} "
          f"{'bincount us':>12}")
    for num_users, num_objects in SHAPES:
        crossover = None
        for ratio in ratios:
            claims, sparse, dense, add_at, binned = measure(
                num_users, num_objects, ratio, budget=budget,
                repeats=repeats, rng=rng,
            )
            if crossover is None and dense <= sparse:
                crossover = ratio
            print(f"{num_users:>5}x{num_objects:<3} {ratio:>12.2f} "
                  f"{claims:>7} {sparse:>10.1f} {dense:>9.1f} "
                  f"{add_at:>10.1f} {binned:>12.1f}")
        print(f"{num_users:>5}x{num_objects:<3} dense no dearer from "
              f"claims/cells = {crossover}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
