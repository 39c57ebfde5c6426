"""Spread of one report, or A/B comparison of two.

    python3 benchmarks/e2e/compare.py A.json            # dispersion study
    python3 benchmarks/e2e/compare.py A.json B.json     # A = parent, B = change

Reports are what ``run.py --reps N --output PATH`` writes; a directory
stands for all the ``*.json`` reports in it (one process per run, a
seed each: ``for s in 1 2 3; do run.py --seed $s --output A/$s.json; done``).
For each
(end-to-end metric, workload) pair the tool gives each side's median
and quartiles and one verdict against the bound in ``BENCHMARK.json``:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own quartile spread exceeds the bound, so
  the pair cannot be called unchanged (unless every run of B reads
  better than every run of A);
* ``ok`` — neither.

With one report, ``wide`` marks a pair whose spread exceeds its bound.
Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import measure  # noqa: E402


def load_values(path: Path) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per repetition]}`` for every
    end-to-end and ungated metric of an untraced report, or of every
    report in a directory."""
    path = Path(path)
    values: dict[tuple[str, str], list[float]] = {}
    for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        report = json.loads(file.read_text())
        for workload, body in report["workloads"].items():
            for rep in body["reps"]:
                for section in ("end_to_end", "ungated"):
                    for metric, value in rep.get(section, {}).items():
                        values.setdefault((workload, metric), []).append(float(value))
    return values


def worse_by(spec: dict, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base`` in the worse direction."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if spec["better"] == "lower" else -change


def all_better(spec: dict, a: list[float], b: list[float]) -> bool:
    """Every run of B reads better than every run of A."""
    return max(b) < min(a) if spec["better"] == "lower" else min(b) > max(a)


def judge(spec: dict, a: list[float], b: list[float]) -> tuple[str, float]:
    """``(verdict, worse_by)`` for one gated pair."""
    med_a, _, _, spread_a = measure.quartile_spread(a)
    med_b, _, _, spread_b = measure.quartile_spread(b)
    delta = worse_by(spec, med_a, med_b)
    if delta > spec["bound"]:
        return "REGRESSION", delta
    if max(spread_a, spread_b) > spec["bound"] and not all_better(spec, a, b):
        return "unresolved", delta
    return "ok", delta


def _row(values: list[float]) -> str:
    med, q1, q3, spread = measure.quartile_spread(values)
    return f"{med:>12.5g} [{q1:.5g}, {q3:.5g}] {spread:>6.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    args = parser.parse_args(argv)
    specs = {spec["name"]: spec for spec in catalog.end_to_end()}
    ungated = {spec["name"]: spec for spec in catalog.per_layer()}
    a = load_values(args.a)
    b = load_values(args.b) if args.b else None
    flagged = 0
    header = "median [q1, q3] spread"
    tail = f"{'B ' + header:>44}  worse by  verdict" if b else "  bound"
    print(f"{'workload':<22}{'metric':<22}{'A ' + header:>44}{tail}")
    for (workload, metric), values in sorted(a.items()):
        spec = specs.get(metric)
        line = f"{workload:<22}{metric:<22}{_row(values):>44}"
        if b is None:
            _, _, _, spread = measure.quartile_spread(values)
            if spec is None:
                line += "  -"
            else:
                wide = spread > spec["bound"]
                flagged += wide
                line += f"  {spec['bound']:.0%}" + ("  wide" if wide else "")
        elif (workload, metric) in b:
            other = b[(workload, metric)]
            line += f"{_row(other):>44}"
            if spec is None:
                med_a = measure.quartile_spread(values)[0]
                med_b = measure.quartile_spread(other)[0]
                line += f"  {worse_by(ungated[metric], med_a, med_b):>+7.1%}  (ungated)"
            else:
                verdict, delta = judge(spec, values, other)
                flagged += verdict != "ok"
                line += f"  {delta:>+7.1%}  {verdict}"
        print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
