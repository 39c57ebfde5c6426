"""Parent-vs-change A/B by the claim rule: alternating pairs, a verdict per metric.

    python3 benchmarks/ab.py --parent REV --workload W [--pairs N]
        [--seeds S ...] [--out DIR]
    python3 benchmarks/ab.py --parent REV --probe P [--probe-args="--quick ..."] ...
    python3 benchmarks/ab.py --judge DIR

Both trees are extracted with ``git archive`` into ``DIR/A`` (the
parent) and ``DIR/B`` (the change: ``HEAD``, as committed): paths of
equal length, so neither side's allocations line up differently by
accident.
Each pair runs the parent and the change once on one seed, and the
order alternates from pair to pair (A then B, then B then A), so a
machine that speeds up or slows down during the study moves both sides
alike.  A workload run is ``benchmarks/e2e/run.py --workload W --seed S
--output`` at the run length ``run.py`` fixes, and a probe run is
``benchmarks/probes/P.py``; every report is kept, as
``DIR/reports/{A,B}/<seed>.json`` or ``.txt``.

For each metric the table gives both medians, the pairs the change won
(a tie wins nothing), the parent's IQR, and a verdict.  ``CLAIM`` means
the change is better on at least nine pairs in ten (rounded up) and its
median is better than the parent's by more than the parent's IQR;
anything else is ``no claim``.  A gain does not count while more
operations fail: when the change's runs failed more correctness checks
(``checks_failed``, summed over the pairs) than the parent's, every
row reads ``no claim`` and the line under the table says why.  A
metric's direction comes from the benchmark catalog; every probe figure
is a cost (lower is better).  A probe prints one figure per line as
``name value [unit]``; lines that start with ``#`` are comments.

``--judge DIR`` prints the table for reports already in
``DIR/reports`` without running anything.  Exit code 1 when the change
failed more checks than the parent, else 0: which metric a study
claims is read from its row, not from the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE / "e2e"))

import catalog  # noqa: E402

SIDES = ("A", "B")


# ----------------------------------------------------------------------
# Reports -> metrics.
def workload_metrics(report: dict) -> dict[str, float]:
    """``{"<workload>.<metric>": value}`` of a ``run.py`` report: the
    end-to-end and ungated metrics of every repetition (repetitions of
    one run are averaged), and ``checks_failed``, its failed
    correctness checks."""
    out: dict[str, list[float]] = {}
    for workload, body in report["workloads"].items():
        for rep in body["reps"]:
            out.setdefault(f"{workload}.checks_failed", []).append(float(rep["failed"]))
            for section in ("end_to_end", "ungated"):
                for metric, value in rep.get(section, {}).items():
                    out.setdefault(f"{workload}.{metric}", []).append(float(value))
    return {name: statistics.fmean(values) for name, values in out.items()}


def probe_metrics(text: str) -> dict[str, float]:
    """``{name: value}`` of a probe's output: on each line, the words
    before the first number name the figure and that number is it."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        words = []
        for token in line.split():
            try:
                value = float(token)
            except ValueError:
                words.append(token)
                continue
            if words:
                name = " ".join(words)
                count = sum(1 for key in out if key.split("#")[0] == name)
                out[name if not count else f"{name}#{count + 1}"] = value
            break
    return out


def load_side(directory: Path) -> dict[str, dict[str, float]]:
    """``{pair label: metrics}`` of every report of one side."""
    pairs = {}
    for path in sorted(directory.glob("*")):
        if path.suffix == ".json":
            pairs[path.stem] = workload_metrics(json.loads(path.read_text()))
        elif path.suffix == ".txt":
            pairs[path.stem] = probe_metrics(path.read_text())
    return pairs


def better_direction(name: str) -> str:
    """``"lower"`` or ``"higher"``: the catalog's direction of a
    ``workload.metric`` name; a probe figure is a cost."""
    metric = name.split(".", 1)[1] if "." in name else name
    for spec in catalog.end_to_end() + catalog.per_layer():
        if spec["name"] == metric:
            return spec["better"]
    return "lower"


# ----------------------------------------------------------------------
# The claim rule.
def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule on paired runs (``parent[i]`` with ``change[i]``):
    the change wins at least nine pairs in ten, rounded up, and its
    median beats the parent's by more than the parent's IQR."""
    if len(parent) != len(change) or not parent:
        raise ValueError("the claim rule needs equally many runs a side, at least one")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    med_a, med_b = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    gap = sign * (med_a - med_b)
    needed = math.ceil(0.9 * len(parent))
    claim = wins >= needed and gap > iqr
    return {
        "parent_median": med_a,
        "change_median": med_b,
        "change": (med_b - med_a) / abs(med_a) if med_a else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "verdict": "CLAIM" if claim else "no claim",
    }


def judge(reports: Path) -> tuple[list[tuple[str, dict]], str | None]:
    """One verdict per metric present in every pair of both sides, and
    why no row may claim anything (None when a row may)."""
    sides = [load_side(reports / side) for side in SIDES]
    labels = sorted(set(sides[0]) & set(sides[1]))
    if not labels:
        raise SystemExit(f"ab: no paired reports under {reports}")
    failed = [
        sum(value for label in labels for name, value in side[label].items()
            if name.endswith(".checks_failed"))
        for side in sides
    ]
    refused = None
    if failed[1] > failed[0]:
        refused = (f"no claim on any row: the change failed {failed[1]:g} "
                   f"correctness check(s) over {len(labels)} pair(s), "
                   f"the parent {failed[0]:g}")
    names = set.intersection(*(set(side[label]) for side in sides for label in labels))
    rows = []
    for name in sorted(names):
        parent = [sides[0][label][name] for label in labels]
        change = [sides[1][label][name] for label in labels]
        row = verdict(parent, change, better_direction(name))
        if refused:
            row["verdict"] = "no claim"
        rows.append((name, row))
    return rows, refused


def print_table(rows, refused: str | None) -> None:
    print(f"{'metric':<52}{'parent':>12}{'change':>12}{'diff':>9}"
          f"{'won':>7}{'parent IQR':>12}  verdict")
    for name, row in rows:
        print(f"{name:<52}{row['parent_median']:>12.5g}{row['change_median']:>12.5g}"
              f"{row['change']:>+9.1%}{row['wins']:>4}/{row['pairs']:<2}"
              f"{row['parent_iqr']:>12.4g}  {row['verdict']}")
    if refused:
        print(refused)


# ----------------------------------------------------------------------
# Running.
def extract(rev: str, into: Path) -> None:
    """The committed tree of ``rev``, as ``git archive`` writes it."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_one(tree: Path, args, seed: int, report: Path) -> None:
    if args.workload:
        cmd = [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--output", str(report.with_suffix(".json"))]
        # A failed correctness check exits 1; its report is kept and read.
        subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, check=False)
        if not report.with_suffix(".json").exists():
            raise SystemExit(f"ab: {tree.name} wrote no report for seed {seed}")
    else:
        cmd = [sys.executable, str(tree / "benchmarks" / "probes" / f"{args.probe}.py")]
        cmd += shlex.split(args.probe_args)
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
        report.with_suffix(".txt").write_text(out.stdout)


def study(args) -> Path:
    work = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {"A": work / "A", "B": work / "B"}
    extract(args.parent, trees["A"])
    extract("HEAD", trees["B"])
    reports = work / "reports"
    for side in SIDES:
        (reports / side).mkdir(parents=True, exist_ok=True)
    seeds = args.seeds or [1000 + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds[:args.pairs]):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run_one(trees[side], args, seed, reports / side / str(seed))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done",
              file=sys.stderr)
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="an e2e workload name")
    what.add_argument("--probe", help="a probe under benchmarks/probes, without .py")
    what.add_argument("--judge", type=Path, metavar="DIR",
                      help="judge the reports under DIR/reports; run nothing")
    parser.add_argument("--parent", help="the parent revision (side A; side B is HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="one seed per pair (default 1000, 1001, ...)")
    parser.add_argument("--probe-args", default="", help="arguments for the probe")
    parser.add_argument("--out", help="study directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    if args.judge is not None:
        reports = args.judge / "reports"
    else:
        if not args.parent:
            parser.error("--parent is required unless --judge")
        if args.pairs < 1 or (args.seeds and len(args.seeds) < args.pairs):
            parser.error("--pairs must be positive, with a seed for each pair")
        reports = study(args)
        print(f"reports kept under {reports}")
    rows, refused = judge(reports)
    print_table(rows, refused)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
