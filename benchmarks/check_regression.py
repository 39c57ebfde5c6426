"""Chaos-drill regression gate: compare a fresh drill JSON to a baseline.

CI runs ``python benchmarks/chaos_drill.py --smoke`` on every PR and
feeds the fresh JSON through this script next to the committed
``results/BENCH_chaos_smoke.json`` baseline.  (Throughput and latency
are not gated here: ``benchmarks/e2e/run.py`` measures them and
``benchmarks/e2e/compare.py A/ B/`` compares two sets of runs.)

Metric classes:

* ``lower`` — cost-style: fresh must be at most
  ``max(baseline * (1 + tolerance), floor)``.  The floor keeps
  seconds-scale failover timings from turning runner jitter into
  failures — only degradation past an absolute bound matters;
* ``flag`` — boolean invariants (healed truths bitwise-equal, spent
  budget preserved, exactly one promotion): any ``False`` fails
  regardless of tolerance.

Metrics missing from either file are reported and skipped (a drill run
with ``--scenarios`` lacks the other scenarios' sections), but
comparing two files with *no* common metric is an error — that means
the wrong baseline was wired up.

Exit codes: 0 all compared metrics pass, 1 regression, 2 usage error.

Usage::

    python benchmarks/check_regression.py --kind chaos \
        --baseline results/BENCH_chaos_smoke.json \
        --fresh /tmp/fresh.json [--tolerance 0.4]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

#: Default relative tolerance: CI runners are noisy, shared, and slower
#: than dev machines; 40% rides out scheduler jitter.
DEFAULT_TOLERANCE = 0.40


@dataclass(frozen=True)
class Metric:
    """One comparable value inside a bench report."""

    path: str
    direction: str  # "lower" | "flag"
    floor: float = 0.0  # absolute bound for "lower" metrics


CHAOS_METRICS = (
    # Self-healing failover ceilings from the chaos drill
    # (``python benchmarks/chaos_drill.py --smoke``).  Detection is
    # bounded by interval * misses (0.2s * 3 in the drill) plus probe
    # timeouts, and promotion by one standby replay; both floors sit an
    # order of magnitude above healthy values (≈2.4s / ≈1s) so only a watchdog
    # that has actually stopped meeting its SLO trips the gate, not a
    # loaded runner.  The bound is max(baseline*(1+tol), floor), so
    # the floor governs while baselines stay small.
    Metric("watchdog.detection_seconds_max", "lower", floor=10.0),
    Metric("watchdog.promotion_seconds_max", "lower", floor=15.0),
    Metric("watchdog.failover_wall_seconds_max", "lower", floor=30.0),
    # Hard invariants over every drill: the watchdog (not an operator)
    # promoted, the healed truths are bitwise the dead primary's WAL
    # replayed to the watermark, and spent budget stayed spent.
    Metric("invariants.auto_promoted", "flag"),
    Metric("invariants.truths_match_bitwise", "flag"),
    Metric("invariants.budget_spent_matches", "flag"),
    # Degraded-mode drills (ISSUE-10).  Host-loss re-homes are journal
    # replays onto a survivor — healthy runs finish in well under a
    # second, so the 20s floor only trips a structural stall.  The
    # flags are hard: a partitioned watchdog fleet must promote
    # exactly once (fencing), re-homed truths must be bitwise the
    # uncrashed run's, and the budget ledger must survive untouched.
    Metric("rehome.rehome_seconds_max", "lower", floor=20.0),
    Metric("invariants.no_double_promotion", "flag"),
    Metric("invariants.stale_promote_refused", "flag"),
    Metric("invariants.rehome_truths_match_bitwise", "flag"),
    Metric("invariants.rehome_budget_matches", "flag"),
    Metric("invariants.wal_replay_matches", "flag"),
)

KINDS = {"chaos": CHAOS_METRICS}


def lookup(report: dict, path: str):
    """Resolve a dotted path inside a nested dict (None when absent)."""
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one metric."""

    metric: Metric
    baseline: object
    fresh: object
    ok: Optional[bool]  # None = skipped
    note: str = ""


def compare_metric(
    metric: Metric, baseline: dict, fresh: dict, tolerance: float
) -> Comparison:
    """Compare one metric between two reports."""
    base_value = lookup(baseline, metric.path)
    fresh_value = lookup(fresh, metric.path)
    if base_value is None or fresh_value is None:
        side = "baseline" if base_value is None else "fresh report"
        return Comparison(
            metric, base_value, fresh_value, None,
            f"missing from {side}; skipped",
        )
    if metric.direction == "flag":
        ok = bool(fresh_value)
        return Comparison(
            metric, base_value, fresh_value, ok,
            "" if ok else "invariant is False",
        )
    base_value = float(base_value)
    fresh_value = float(fresh_value)
    if metric.direction == "lower":
        bound = max(base_value * (1.0 + tolerance), metric.floor)
        ok = fresh_value <= bound
        note = "" if ok else (
            f"{fresh_value:g} > {bound:g} "
            f"(= max(baseline {base_value:g} + {tolerance:.0%}, "
            f"floor {metric.floor:g}))"
        )
        return Comparison(metric, base_value, fresh_value, ok, note)
    raise ValueError(f"unknown metric direction {metric.direction!r}")


def check_regression(
    baseline: dict,
    fresh: dict,
    *,
    kind: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Comparison]:
    """Compare every known metric; raises ValueError on bad inputs."""
    if kind not in KINDS:
        raise ValueError(
            f"kind must be one of {sorted(KINDS)}, got {kind!r}"
        )
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
    results = [
        compare_metric(metric, baseline, fresh, tolerance)
        for metric in KINDS[kind]
    ]
    if all(c.ok is None for c in results):
        raise ValueError(
            "no metric exists in both reports — wrong baseline for "
            f"kind {kind!r}?"
        )
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh chaos-drill report regresses vs "
        "a committed baseline",
    )
    parser.add_argument(
        "--kind", required=True, choices=sorted(KINDS),
        help="which report layout to compare",
    )
    parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON path"
    )
    parser.add_argument(
        "--fresh", required=True, help="freshly measured JSON path"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drop/degradation (default "
        f"{DEFAULT_TOLERANCE:.0%}, sized for CI-runner noise)",
    )
    args = parser.parse_args(argv)

    reports = []
    for label, path in (("baseline", args.baseline), ("fresh", args.fresh)):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {label} report {path}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        results = check_regression(
            reports[0], reports[1], kind=args.kind, tolerance=args.tolerance
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    failed = 0
    for comparison in results:
        metric = comparison.metric
        if comparison.ok is None:
            status = "SKIP"
        elif comparison.ok:
            status = "ok"
        else:
            status = "FAIL"
            failed += 1
        detail = f"  [{comparison.note}]" if comparison.note else ""
        print(
            f"{status:>4}  {metric.path:<45} "
            f"baseline={comparison.baseline!r:>16} "
            f"fresh={comparison.fresh!r:>16}{detail}"
        )
    if failed:
        print(
            f"{failed} metric(s) regressed beyond {args.tolerance:.0%} "
            f"tolerance",
            file=sys.stderr,
        )
        return 1
    print(f"no regression beyond {args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
