"""The repository's benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--reps N] [--quick] [--output PATH]

Prints a table per workload and, last, one JSON line per workload with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``).  Exits 1
when any correctness check failed.  See the README beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _bootstrap() -> bool:
    """Make ``repro`` importable from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"benchmarks/e2e: no program to measure at {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


def _parse(argv):
    import catalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=catalog.workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window per workload (default {catalog.run_seconds()}; 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer table and metrics")
    parser.add_argument("--reps", type=int, default=1, help="back-to-back repetitions")
    parser.add_argument("--quick", action="store_true", help="smoke sizes, all checks on")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the full report here (and spans to PATH.spans.<workload>.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(catalog.run_seconds())
    if args.seconds <= 0 or args.reps < 1:
        parser.error("--seconds must be positive and --reps at least 1")
    return args


# ----------------------------------------------------------------------
def _run_untraced(name: str, args, seed: int, work_dir: Path):
    import workloads

    return workloads.run(
        name, workloads.Context(seed=seed, seconds=args.seconds, work_dir=work_dir, quick=args.quick)
    )


def _run_traced(name: str, args, seed: int, work_dir: Path, spans_path):
    """An untraced window, then the traced run; per-layer metrics.

    Both passes do half of ``--seconds`` of work, so a traced
    invocation costs about what an untraced one does.
    """
    import catalog
    import workloads
    from spans import Tracer

    def context(**kwargs):
        return workloads.Context(
            seed=seed, seconds=args.seconds / 2, work_dir=work_dir, quick=args.quick, **kwargs
        )

    plain = workloads.run(name, context(post=False))
    obs_off = workloads.run(name, context(post=False, obs=False)) if name == "device_submit" else None
    tracer = Tracer()
    tracer.install(
        catalog.SPAN_SITES,
        measures={"net.transport.send_bytes": lambda call_args: len(call_args[1])},
        count_only=[catalog.JOURNAL_SITE],
    )
    try:
        traced = workloads.run(name, context(tracer=tracer))
    finally:
        tracer.uninstall()
    if spans_path is not None:
        traced.info["spans_dumped"] = tracer.dump(spans_path, name)

    by_root = tracer.self_times()
    window = by_root["bench.window"]
    # Speed samples sit inside the window's span but outside the window.
    window["bench.window"]["total_s"] -= window.get("bench.calibrate", {"total_s": 0.0})["total_s"]
    later: dict[str, dict] = {}
    for root, sites in by_root.items():
        if root == "bench.window":
            continue
        for site, stats in sites.items():
            merged = later.setdefault(site, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in merged:
                merged[key] += stats[key]
    # A site's numbers are those of the timed window; a site the window
    # never calls (recovery, failover, replica reads, the reference
    # refit, other threads) reports its calls outside it.
    times = {site: window.get(site) or later.get(site) for site in catalog.span_site_names()}
    layer = {}
    for site, stats in times.items():
        layer[f"{site}.calls"] = stats["calls"] if stats else 0
        layer[f"{site}.self_s"] = stats["self_s"] if stats else 0.0
    layer.update(traced.counts)
    # One scope for the three: every thread, the whole traced pass
    # (set-up, warm-up, window, post-window phases).
    layer["net.frames_sent"], layer["net.bytes_sent"] = tracer.counted("net.transport.send_bytes")
    layer["net.supervisor.journal_frames"] = tracer.counted(catalog.JOURNAL_SITE[0])[0]
    refresh_calls = layer["service.aggregator.refresh.calls"]
    layer["service.refresh_staged_share"] = (
        layer["service.refreshes"] / refresh_calls if refresh_calls else 0.0
    )
    root = window["bench.window"]
    layer["bench.residual_fraction"] = root["self_s"] / root["total_s"]
    layer["bench.trace_overhead_fraction"] = traced.info["window_ref_s"] / plain.info["window_ref_s"] - 1.0
    if obs_off is not None:
        # CPU seconds, not wall: the effect is about a percent, and on
        # a shared two-core box wall clock wanders by more than that.
        layer["obs.overhead_fraction"] = (
            plain.info["window_ref_cpu_s"] / obs_off.info["window_ref_cpu_s"] - 1.0
        )
    layer.update(traced.ungated)
    traced.info["untraced_window_s"] = plain.info["window_s"]
    return traced, layer, window, later


# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _print_end_to_end(name: str, result) -> None:
    import catalog

    info = result.info
    print(f"\n== {name}: window {info['window_s']:.2f} s observed = {info['window_ref_s']:.2f} reference s "
          f"(machine speed {result.counts['bench.machine_speed']:.2f}), {info['window_claims']:,} claims ==")
    print(f"  {'metric':<22}{'value':>14}  unit       bound")
    for spec in catalog.end_to_end():
        value = result.end_to_end[spec["name"]]
        print(f"  {spec['name']:<22}{_fmt(value):>14}  {spec['unit']:<10} {spec['bound']:.0%}")
    units = {spec["name"]: spec["unit"] for spec in catalog.per_layer()}
    for metric, value in result.ungated.items():
        print(f"  {metric:<22}{_fmt(value):>14}  {units[metric]:<10} -")
    print(f"  as observed: {info['observed_claims_per_s']:,.0f} claims per wall-clock second, "
          f"set-up {info['setup_observed_s']:.4g} s")
    print(
        f"  samples: ack {info.get('ack_samples', 0)} (tail p{info.get('ack_tail_percentile', 0):g}), "
        f"read {info.get('read_samples', 0)}, clean read {info.get('clean_read_samples', 0)}"
    )
    for key in sorted(result.counts):
        print(f"  {key:<34}{_fmt(result.counts[key]):>16}")


def _print_layers(name: str, result, layer: dict, window: dict, later: dict) -> None:
    import catalog

    wall = window["bench.window"]["total_s"]
    claims = result.info["window_claims"]
    print(f"\n== {name} traced: window {wall:.2f} s (untraced {result.info['untraced_window_s']:.2f} s), "
          f"{claims:,} claims ==")
    print(f"  {'span site':<42}{'calls':>10}{'self s':>10}{'ns/claim':>10}{'share':>8}")
    groups: dict[str, float] = {}
    for site in catalog.span_site_names():
        stats = window.get(site)
        if not stats:
            continue
        groups[site.split(".")[0]] = groups.get(site.split(".")[0], 0.0) + stats["self_s"]
        print(f"  {site:<42}{stats['calls']:>10}{stats['self_s']:>10.3f}"
              f"{stats['self_s'] / claims * 1e9:>10.1f}{stats['self_s'] / wall:>8.1%}")
    print("  self time by layer: " + ", ".join(
        f"{group} {self_s / wall:.1%}" for group, self_s in sorted(groups.items(), key=lambda g: -g[1])
    ))
    residual = layer["bench.residual_fraction"]
    flag = "  <-- above 10%" if residual > 0.10 else ""
    print(f"  bench.residual_fraction {residual:.1%}{flag}   "
          f"bench.trace_overhead_fraction {layer['bench.trace_overhead_fraction']:.1%}")
    outside = [site for site in catalog.span_site_names() if site not in window and site in later]
    if outside:
        print("  outside the window (post-window phases, other threads):")
        for site in outside:
            stats = later[site]
            print(f"  {site:<42}{stats['calls']:>10}{stats['self_s']:>10.3f}")
    for spec in catalog.layer_counts():
        value = layer.get(spec["name"], 0.0)
        if value:
            print(f"  {spec['name']:<34}{_fmt(value):>16}  {spec['unit']}")


def _result_line(declared: list[dict], values: dict, verdicts) -> dict:
    return {
        "correct": verdicts.failed == 0,
        "attempted": max(verdicts.attempted, 1),
        "failed": verdicts.failed,
        "metrics": {
            spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
            for spec in declared
        },
    }


def main(argv=None) -> int:
    if not _bootstrap():
        return 2
    import catalog
    import measure

    args = _parse(argv)
    names = catalog.workload_names() if args.workload == "all" else [args.workload]
    work_dir = HERE / ".work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "schema": 1,
        "fingerprint": measure.fingerprint(ROOT, work_dir, args.seed),
        "args": {"seconds": args.seconds, "trace": args.trace, "reps": args.reps, "quick": args.quick},
        "workloads": {},
    }
    if report["fingerprint"]["noisy"]:
        print("note: load average above nproc/2 at start; numbers flagged noisy", file=sys.stderr)
    lines = []
    failed = 0
    try:
        for name in names:
            reps = []
            seed = args.seed
            for _ in range(args.reps):
                if args.trace:
                    spans_path = (
                        None if args.output is None
                        else args.output.with_name(f"{args.output.name}.spans.{name}.json")
                    )
                    result, layer, window, later = _run_traced(name, args, seed, work_dir, spans_path)
                    _print_layers(name, result, layer, window, later)
                    line = _result_line(catalog.per_layer(), layer, result.verdicts)
                    reps.append({"per_layer": layer, "info": result.info})
                else:
                    result = _run_untraced(name, args, seed, work_dir)
                    _print_end_to_end(name, result)
                    line = _result_line(catalog.end_to_end(), result.end_to_end, result.verdicts)
                    reps.append({
                        "end_to_end": result.end_to_end,
                        "ungated": result.ungated,
                        "counts": result.counts,
                        "info": result.info,
                    })
                reps[-1].update(seed=seed, attempted=line["attempted"], failed=line["failed"])
                for example in result.verdicts.examples:
                    print(f"  CHECK FAILED {name}: {example}", file=sys.stderr)
                failed += result.verdicts.failed
            report["workloads"][name] = {"reps": reps}
            lines.append(line)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=1, default=float))
    sys.stdout.flush()
    for line in lines:
        print(json.dumps(line))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
