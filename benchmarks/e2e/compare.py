"""Compare benchmark rows written by ``run.py --json``.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py ROWS.jsonl --a LABEL --b LABEL
    python benchmarks/e2e/compare.py ROWS.jsonl --spread LABEL

``--a/--b`` prints, per workload and end-to-end metric, each set's median
and B/A, and flags B worse than A by more than the metric's bound in
``BENCHMARK.json``.  ``--spread`` prints each metric's inter-quartile
spread across the set's runs as a share of its median, against a third of
the bound.  Either refuses (exit 2) to mix rows whose environments differ
in anything but the commit; exit 1 means a bound was exceeded.  Smoke and
traced rows are never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from metrics import spread

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def load_rows(path: Path, label: str) -> Dict[str, List[Dict]]:
    """Untraced, non-smoke rows with ``label``, grouped by workload."""
    rows: Dict[str, List[Dict]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("label") == label and not row["trace"] and not row["smoke"]:
            rows.setdefault(row["workload"], []).append(row)
    return rows


def environment_mismatch(rows: List[Dict]) -> List[str]:
    """Environment keys (commit aside) whose values differ across rows."""
    keys = sorted({key for row in rows for key in row["environment"]} - {"git_sha"})
    return [key for key in keys
            if len({str(row["environment"].get(key)) for row in rows}) > 1]


def values_of(rows: List[Dict], metric: str) -> List[float]:
    return [row["metrics"][metric]["value"] for row in rows]


def compare(sets: Dict[str, Dict[str, List[Dict]]], bounds: List[Dict],
            names) -> int:
    a, b = (sets[name] for name in names)
    status = 0
    for workload in sorted(set(a) & set(b)):
        print(f"{workload}  (A: {len(a[workload])} runs, B: {len(b[workload])} runs)")
        for entry in bounds:
            metric = entry["name"]
            first = statistics.median(values_of(a[workload], metric))
            second = statistics.median(values_of(b[workload], metric))
            ratio = second / first
            worse = ratio - 1 if entry["better"] == "lower" else 1 - ratio
            verdict = "ok"
            if worse > entry["bound"]:
                verdict, status = "WORSE THAN BOUND", 1
            print(f"  {metric:22s} A {first:12.6g}  B {second:12.6g}  "
                  f"B/A {ratio:7.4f}  bound {entry['bound']:.2f}  {verdict}")
    return status


def spreads(rows: Dict[str, List[Dict]], bounds: List[Dict]) -> int:
    status = 0
    for workload in sorted(rows):
        print(f"{workload}  ({len(rows[workload])} runs)")
        for entry in bounds:
            metric = entry["name"]
            share = spread(values_of(rows[workload], metric))
            verdict = "ok"
            if share > entry["bound"] / 3:
                verdict = "above a third of the bound"
                if entry["name"] != "setup_s" and share > entry["bound"]:
                    verdict, status = "ABOVE BOUND", 1
            print(f"  {metric:22s} spread {share:7.4f}  "
                  f"bound {entry['bound']:.2f}  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", type=Path)
    parser.add_argument("--a")
    parser.add_argument("--b")
    parser.add_argument("--spread")
    args = parser.parse_args(argv)
    if not (args.spread or (args.a and args.b)):
        parser.error("give --a and --b, or --spread")
    bounds = json.loads(BENCHMARK.read_text())["end_to_end"]
    labels = [args.spread] if args.spread else [args.a, args.b]
    sets = {label: load_rows(args.rows, label) for label in labels}
    every_row = [row for rows in sets.values() for group in rows.values()
                 for row in group]
    if not every_row:
        print(f"no rows labelled {labels}", file=sys.stderr)
        return 2
    mismatch = environment_mismatch(every_row)
    if mismatch:
        print(f"refusing to compare: environments differ in {mismatch}",
              file=sys.stderr)
        return 2
    if args.spread:
        return spreads(sets[args.spread], bounds)
    return compare(sets, bounds, labels)


if __name__ == "__main__":
    sys.exit(main())
