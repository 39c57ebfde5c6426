"""Command-line interface: ``repro-experiments`` / ``python -m repro``.

Subcommands
-----------
* ``list`` — show available experiments;
* ``run NAME [--profile quick|full] [--seed N] [--markdown]`` — run one
  experiment and print its tables/charts;
* ``all [--profile ...]`` — run every experiment in sequence;
* ``serve-shard [--host H] [--port N] [--worker-id I]`` — run one
  shard host: the worker frame protocol served on a TCP port (the
  multi-node fabric's unit of deployment; ``--port 0`` binds an
  ephemeral port and prints ``PORT <n>`` for the parent to read);
* ``standby --dir DIR [--host H] [--port N] [--fsync POLICY]`` — run
  one warm standby: receive a primary's WAL stream into ``DIR``
  (its own log generation), continuously replay it into live
  aggregators, and serve replica snapshot reads and promotion
  (same ``PORT <n>`` launch contract as ``serve-shard``);
* ``watchdog --primary H:P --standby H:P [...]`` — the auto-failover
  agent: heartbeat a primary's status listener and, when it dies,
  elect the freshest standby and promote it (prints ``ARMED`` when
  live and ``PROMOTED <json>`` after a failover; spawned detached by
  ``Topology.replicated(auto_failover=True)``);
* ``metrics URL`` — scrape a live ``/metrics`` endpoint once and
  pretty-print every series (``--raw`` prints the Prometheus text);
* ``top URL [--interval S]`` — live terminal dashboard over a metrics
  endpoint: throughput, queue depths, durable lag, stage-latency
  percentiles, per-process aggregation rates;
* ``recover DIR [--campaign ID] [--checkpoint]`` — rebuild service
  state from a durability directory and report what was recovered;
* ``compact DIR [--checkpoint-lsn N]`` — rewrite a durability
  directory's write-ahead log down to its live records (claim-granular
  retention; requires a checkpoint covering the dropped records).

The durability subcommands (``recover`` / ``compact`` / ``standby``)
all take their directory as ``--dir DIR`` (``recover`` and ``compact``
also accept it positionally, the historical spelling).  Throughput and
latency are measured outside the package, by ``python3
benchmarks/e2e/run.py [--quick] [--workload NAME]`` (see
``benchmarks/e2e/README.md``); the seeded failover drills are ``python
benchmarks/chaos_drill.py`` (see ``docs/operations.md``).

Exit codes: ``0`` success; ``1`` runtime failure (e.g. a standby's
listener died, a metrics endpoint went away); ``2`` bad input —
unknown names, malformed directories, log corruption the command
refuses to touch.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.utils.logging import enable_console_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the figures of 'Towards Differentially Private "
            "Truth Discovery for Crowd Sensing Systems' (ICDCS 2020)."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("name", help="experiment name (see 'list')")
    _add_run_options(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    _add_run_options(all_p)

    serve_p = sub.add_parser(
        "serve-shard",
        help="run one shard host: the worker frame protocol on a TCP port",
    )
    serve_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (default 0: pick an ephemeral port and "
        "print 'PORT <n>' on stdout for the parent to read)",
    )
    serve_p.add_argument(
        "--worker-id",
        type=int,
        default=0,
        help="host identity used in log and error messages",
    )
    serve_p.add_argument(
        "--shards",
        type=int,
        nargs=2,
        default=(0, 0),
        metavar=("LO", "HI"),
        help="half-open shard range this host is expected to own "
        "(informational; campaigns arrive via REGISTER frames)",
    )

    standby_p = sub.add_parser(
        "standby",
        help="run one warm standby: receive, persist, and replay a "
        "primary's WAL stream; serve replica reads and promotion",
    )
    standby_p.add_argument(
        "--dir",
        metavar="DIR",
        required=True,
        help="this standby's durability directory (its own WAL "
        "generation; resumed if it already holds a log)",
    )
    standby_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    standby_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (default 0: pick an ephemeral port and "
        "print 'PORT <n>' on stdout for the parent to read)",
    )
    standby_p.add_argument(
        "--fsync",
        choices=("never", "batch", "always"),
        default="batch",
        help="commit policy of the standby's own WAL (default batch; "
        "the standby acks a shipped group only after its own fsync)",
    )

    watchdog_p = sub.add_parser(
        "watchdog",
        help="heartbeat a primary's status listener; on death, elect "
        "and promote the freshest standby (the auto-failover agent "
        "behind Topology.replicated(auto_failover=True))",
    )
    watchdog_p.add_argument(
        "--primary",
        required=True,
        metavar="HOST:PORT",
        help="the primary's status listener address",
    )
    watchdog_p.add_argument(
        "--standby",
        action="append",
        required=True,
        metavar="HOST:PORT",
        dest="standbys",
        help="a standby listener address (repeat per standby; order "
        "is the election tie-break)",
    )
    watchdog_p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between heartbeats (default 0.5)",
    )
    watchdog_p.add_argument(
        "--misses",
        type=int,
        default=4,
        help="consecutive missed heartbeats before the primary is "
        "declared dead (default 4)",
    )
    watchdog_p.add_argument(
        "--probe-timeout",
        type=float,
        default=1.0,
        help="dial + response budget of one probe (default 1.0)",
    )
    watchdog_p.add_argument(
        "--index",
        type=int,
        default=0,
        help="this watchdog's identity within the fleet (default 0)",
    )
    watchdog_p.add_argument(
        "--peer-port",
        type=int,
        default=None,
        help="port of this watchdog's own voting listener (quorum "
        "fleets only; 0 picks a free one)",
    )
    watchdog_p.add_argument(
        "--peer",
        action="append",
        default=None,
        metavar="HOST:PORT",
        dest="peers",
        help="another fleet member's voting listener (repeat per "
        "peer); any peer switches on majority voting before promotion",
    )

    metrics_p = sub.add_parser(
        "metrics",
        help="scrape a live metrics endpoint once and pretty-print it",
    )
    metrics_p.add_argument(
        "url",
        help="metrics endpoint, e.g. http://127.0.0.1:9800/metrics",
    )
    metrics_p.add_argument(
        "--raw",
        action="store_true",
        help="print the Prometheus text exposition instead of the "
        "formatted summary",
    )

    top_p = sub.add_parser(
        "top",
        help="live terminal dashboard over a metrics endpoint",
    )
    top_p.add_argument(
        "url",
        help="metrics endpoint, e.g. http://127.0.0.1:9800/metrics",
    )
    top_p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval in seconds (default 2.0)",
    )
    top_p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="redraw N times then exit (default: run until Ctrl-C or "
        "the endpoint goes away)",
    )

    compact_p = sub.add_parser(
        "compact",
        help="rewrite a durability directory's WAL down to live records",
    )
    compact_p.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="durability directory (WAL segments + checkpoints); "
        "equivalent to --dir",
    )
    compact_p.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="durability directory (the flag spelling shared with "
        "'standby')",
    )
    compact_p.add_argument(
        "--checkpoint-lsn",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint LSN the rewrite assumes (default: the newest "
        "readable checkpoint); values no checkpoint covers are refused",
    )
    compact_p.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the compaction report as JSON to this path",
    )

    recover_p = sub.add_parser(
        "recover",
        help="rebuild service state from a durability directory",
    )
    recover_p.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="durability directory (WAL segments + checkpoints); "
        "equivalent to --dir",
    )
    recover_p.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="durability directory (the flag spelling shared with "
        "'standby')",
    )
    recover_p.add_argument(
        "--campaign",
        metavar="ID",
        default=None,
        help="also print the recovered truths of one campaign",
    )
    recover_p.add_argument(
        "--checkpoint",
        action="store_true",
        help="resume the log and checkpoint the recovered campaigns and "
        "spent budget (bounds the next replay and retires covered WAL "
        "segments)",
    )
    recover_p.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the recovery report as JSON to this path",
    )

    show_p = sub.add_parser("show", help="render a previously saved result")
    show_p.add_argument("name", help="figure id saved in the store")
    show_p.add_argument(
        "--store", metavar="DIR", required=True, help="result-store directory"
    )
    show_p.add_argument(
        "--markdown",
        action="store_true",
        help="emit markdown tables instead of ASCII charts",
    )

    return parser


def _resolve_dir(args) -> Optional[str]:
    """One directory from the positional and ``--dir`` spellings."""
    if args.directory is not None and args.dir is not None:
        if args.directory != args.dir:
            print(
                f"both a positional directory ({args.directory}) and "
                f"--dir ({args.dir}); pass one",
                file=sys.stderr,
            )
            return None
        return args.dir
    directory = args.dir if args.dir is not None else args.directory
    if directory is None:
        print(
            f"{args.command}: a durability directory is required "
            f"(--dir DIR)",
            file=sys.stderr,
        )
    return directory


def _write_output(report: dict, output: Optional[str]) -> None:
    if output is None or output == "-":
        return
    import json
    import os

    parent = os.path.dirname(output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output}", file=sys.stderr)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=("quick", "full"),
        default="quick",
        help="experiment size (quick: seconds; full: paper-quality)",
    )
    parser.add_argument(
        "--seed", type=int, default=2020, help="base random seed"
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit markdown tables instead of ASCII charts",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="also save the result as JSON into this result-store directory",
    )


def _print_result(result, markdown: bool) -> None:
    if markdown:
        from repro.experiments.reporting import figure_markdown

        print(figure_markdown(result))
    else:
        print(result.render())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_console_logging()

    if args.command in ("list", "run", "all"):
        # Imported here: every spawned serve-shard / standby / watchdog
        # runs this module, and none of them draws a figure.
        from repro.experiments import available_experiments, run_experiment

    if args.command == "list":
        for name in available_experiments():
            print(name)
        return 0

    if args.command == "run":
        if args.name not in available_experiments():
            print(
                f"unknown experiment {args.name!r}; available: "
                f"{', '.join(available_experiments())}",
                file=sys.stderr,
            )
            return 2
        result = run_experiment(args.name, args.profile, base_seed=args.seed)
        _maybe_save(result, args.save)
        _print_result(result, args.markdown)
        return 0

    if args.command == "all":
        for name in available_experiments():
            result = run_experiment(name, args.profile, base_seed=args.seed)
            _maybe_save(result, args.save)
            _print_result(result, args.markdown)
            print()
        return 0

    if args.command == "metrics":
        from repro.obs.exposition import render_prometheus, try_scrape
        from repro.obs.top import format_metrics

        snapshot = try_scrape(args.url)
        if snapshot is None:
            print(f"{args.url}: no metrics endpoint reachable",
                  file=sys.stderr)
            return 1
        if args.raw:
            print(render_prometheus(snapshot), end="")
        else:
            print(format_metrics(snapshot))
        return 0

    if args.command == "top":
        from repro.obs.top import run_top

        return run_top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
        )

    if args.command == "serve-shard":
        from repro.net.host import serve_shard

        def announce(port: int) -> None:
            # The launch contract: the first stdout line names the
            # bound port, so a parent that asked for --port 0 can dial.
            print(f"PORT {port}", flush=True)

        return serve_shard(
            host=args.host,
            port=args.port,
            worker_id=args.worker_id,
            shard_range=tuple(args.shards),
            announce=announce,
        )

    if args.command == "standby":
        from repro.durable.checkpoint import CheckpointError
        from repro.durable.records import RecordError
        from repro.durable.wal import WalError
        from repro.replication.standby import StandbyError, serve_standby

        def announce(port: int) -> None:
            # Same launch contract as serve-shard: the first stdout
            # line names the bound port for a --port 0 parent to read.
            print(f"PORT {port}", flush=True)

        try:
            serve_standby(
                args.dir,
                host=args.host,
                port=args.port,
                fsync=args.fsync,
                announce=announce,
            )
        except (CheckpointError, RecordError, WalError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except StandbyError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        return 0

    if args.command == "watchdog":
        import json

        from repro.replication.watchdog import (
            FailoverWatchdog,
            WatchdogError,
            parse_address,
        )

        try:
            primary = parse_address(args.primary)
            standbys = [parse_address(a) for a in args.standbys]
            peers = [parse_address(a) for a in (args.peers or [])]
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        watchdog = FailoverWatchdog(
            primary,
            standbys,
            interval=args.interval,
            misses=args.misses,
            probe_timeout=args.probe_timeout,
            index=args.index,
            peers=peers,
            peer_port=args.peer_port,
            # The launch contract: "ARMED" once the primary has been
            # seen alive, "PROMOTED <json>" after a failover this
            # watchdog performed itself, "OBSERVED <json>" when it
            # stood down because a peer promoted first — all on
            # stdout, where a drill (or operator tooling) reads them.
            on_armed=lambda: print("ARMED", flush=True),
        )
        try:
            result = watchdog.run()
        except WatchdogError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        except KeyboardInterrupt:  # pragma: no cover - operator stop
            return 0
        finally:
            if watchdog.peer_server is not None:
                watchdog.peer_server.stop()
        if result is None:
            return 0
        tag = "OBSERVED" if result.get("observed") else "PROMOTED"
        print(
            f"{tag} " + json.dumps(result, sort_keys=True), flush=True
        )
        return 0

    if args.command == "compact":
        from repro.durable.compaction import compact_directory
        from repro.durable.wal import WalError

        directory = _resolve_dir(args)
        if directory is None:
            return 2
        try:
            report = compact_directory(
                directory, checkpoint_lsn=args.checkpoint_lsn
            )
        except WalError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(report.summary())
        _write_output(report.as_dict(), args.output)
        return 0

    if args.command == "recover":
        from repro.durable.checkpoint import CheckpointError
        from repro.durable.records import RecordError
        from repro.durable.recovery import RecoveryError, RecoveryManager
        from repro.durable.wal import WalError

        directory = _resolve_dir(args)
        if directory is None:
            return 2
        try:
            recovered = RecoveryManager(directory).recover(
                resume=args.checkpoint
            )
        except (CheckpointError, RecordError, RecoveryError, WalError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(recovered.report.summary())
        for campaign_id in recovered.service.campaign_ids:
            print(recovered.service.snapshot(campaign_id).summary())
        if args.campaign is not None:
            if not recovered.service.has_campaign(args.campaign):
                print(
                    f"campaign {args.campaign!r} not in the recovered "
                    f"state",
                    file=sys.stderr,
                )
                return 2
            snapshot = recovered.service.snapshot(args.campaign)
            for object_id, truth, seen in zip(
                snapshot.object_ids, snapshot.truths, snapshot.seen_objects
            ):
                marker = "" if seen else "  (no claims)"
                print(f"  {object_id}: {truth:.6g}{marker}")
        if recovered.durability is not None:
            recovered.durability.close()
        _write_output(recovered.report.as_dict(), args.output)
        return 0

    if args.command == "show":
        from repro.experiments.store import ResultStore

        store = ResultStore(args.store)
        try:
            result = store.get(args.name)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _print_result(result, args.markdown)
        return 0

    return 2  # pragma: no cover - argparse enforces the subcommands


def _maybe_save(result, save_dir: Optional[str]) -> None:
    if save_dir is None:
        return
    from repro.experiments.store import ResultStore

    path = ResultStore(save_dir).put(result)
    print(f"saved {result.figure_id} -> {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
