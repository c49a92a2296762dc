"""Calibrated benchmark-regression gate over pytest-benchmark timings.

Raw seconds are meaningless across heterogeneous CI runners, so timings
are *calibrated*: the benchmark run times a fixed numpy reference
workload (:func:`calibration_seconds`: the same kind of kernels the
substrate spends its time in — matmul, elementwise transcendentals,
reductions) in the same pytest process, right after the benchmarks, and
``benchmarks/conftest.py`` records it in the benchmark JSON as
``calibration_seconds``.  This script expresses every benchmark as a
dimensionless ratio ``benchmark_mean / calibration_seconds`` over that
recorded value, never a fresh timing, so the machine's load when the gate
runs cannot move a ratio.  Those normalized ratios are comparable across
machines, so a threshold file checked into the repo can gate regressions:
a benchmark fails when its ratio exceeds the stored ceiling (measured
ratio x headroom at the time thresholds were updated).

Workflow::

    python -m pytest benchmarks/bench_substrate_throughput.py -q \
        --benchmark-only --benchmark-json bench-timings.json
    python benchmarks/check_benchmark_regression.py \
        --bench-json bench-timings.json --out bench-normalized.json

Regenerate ceilings after an intentional perf change::

    python benchmarks/check_benchmark_regression.py \
        --bench-json bench-timings.json --update

Perf-trend history (ROADMAP item 5): every gated run can also append its
normalized ratios to ``benchmarks/bench_history.jsonl`` (one JSON line
per run) with ``--append-history``, and the gate reports each
benchmark's delta against the *trailing median* of the recorded history —
so a slow drift that never crosses the fixed ceiling is still visible,
run over run, in CI logs and in the committed history file.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_write_text

DEFAULT_THRESHOLDS = Path(__file__).resolve().parent / "benchmark_thresholds.json"
DEFAULT_HISTORY = Path(__file__).resolve().parent / "bench_history.jsonl"
DEFAULT_HEADROOM = 4.0
TREND_WINDOW = 20
"""How many trailing history entries the median baseline considers."""


def calibration_seconds(repeats: int = 5) -> float:
    """Time the fixed reference workload; min-of-N rejects scheduler noise."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    c = rng.standard_normal((64, 4096))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(8):
            d = a @ b
            e = np.exp(c * 0.25)
            f = np.maximum(d, 0.0).sum() + np.log1p(e).sum()
            g = np.sort(c, axis=1)
            h = (g[:, :64] @ g[:, :64].T).std()
            float(f + h)
        best = min(best, time.perf_counter() - start)
    return best


def load_history(path: Path):
    """History entries, oldest first; torn tail lines are skipped."""
    entries = []
    if not path.is_file():
        return entries
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                continue  # a torn append; history is advisory
    return entries


def trailing_medians(entries, window: int = TREND_WINDOW):
    """Per-benchmark median normalized ratio over the last ``window`` runs."""
    recent = entries[-window:]
    series = {}
    for entry in recent:
        for name, ratio in entry.get("normalized", {}).items():
            series.setdefault(name, []).append(float(ratio))
    return {name: float(np.median(values)) for name, values in series.items()}


def append_history(path: Path, normalized, calibration: float,
                   run_id: str) -> None:
    entry = {
        "run_id": run_id,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "calibration_seconds": calibration,
        "normalized": {name: round(ratio, 4)
                       for name, ratio in sorted(normalized.items())},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # repro: allow[ATM001] -- append-only perf journal; readers skip torn tail lines
    with open(path, "a") as stream:
        stream.write(json.dumps(entry, sort_keys=True) + "\n")


def load_benchmarks(path: Path):
    """Each benchmark's mean seconds, and the calibration time recorded
    beside them."""
    with open(path) as stream:
        payload = json.load(stream)
    rows = {}
    for bench in payload.get("benchmarks", []):
        rows[bench["name"]] = float(bench["stats"]["mean"])
    if not rows:
        raise SystemExit(f"no benchmarks found in {path}")
    calibration = payload.get("calibration_seconds")
    if (isinstance(calibration, bool) or not isinstance(calibration, (int, float))
            or not calibration > 0):
        raise SystemExit(
            f"{path} records no calibration_seconds: run the benchmarks "
            "under pytest with benchmarks/conftest.py, which times the "
            "calibration workload beside them")
    return rows, float(calibration)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate pytest-benchmark timings against calibrated ceilings")
    parser.add_argument("--bench-json", required=True, metavar="PATH",
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--thresholds", default=str(DEFAULT_THRESHOLDS),
                        metavar="PATH", help="ceiling file (checked in)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the normalized rows as JSON (CI artifact)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the threshold file from this run "
                             "(measured ratio x headroom) instead of gating")
    parser.add_argument("--headroom", type=float, default=None,
                        help=f"headroom factor for --update "
                             f"(default: keep the file's, or {DEFAULT_HEADROOM})")
    parser.add_argument("--history", default=str(DEFAULT_HISTORY),
                        metavar="PATH",
                        help="perf-trend journal (one JSON line per run); "
                             "deltas are reported against its trailing "
                             f"median over the last {TREND_WINDOW} runs")
    parser.add_argument("--append-history", action="store_true",
                        help="append this run's normalized ratios to the "
                             "history journal after reporting")
    parser.add_argument("--run-id", default=None, metavar="ID",
                        help="label for the appended history entry "
                             "(default: $GITHUB_SHA or 'local')")
    args = parser.parse_args(argv)

    benchmarks, calibration = load_benchmarks(Path(args.bench_json))
    normalized = {name: mean / calibration for name, mean in benchmarks.items()}
    print(f"calibration workload: {calibration * 1e3:.2f} ms, "
          "timed beside the benchmarks")

    thresholds_path = Path(args.thresholds)
    stored = {}
    headroom = args.headroom
    if thresholds_path.is_file():
        with open(thresholds_path) as stream:
            stored = json.load(stream)
        if headroom is None:
            headroom = stored.get("headroom", DEFAULT_HEADROOM)
    elif headroom is None:
        headroom = DEFAULT_HEADROOM

    if args.out:
        atomic_write_text(args.out, json.dumps({
            "calibration_seconds": calibration,
            "mean_seconds": benchmarks,
            "normalized": normalized,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    history_path = Path(args.history)
    history = load_history(history_path)
    medians = trailing_medians(history)
    if medians:
        window = min(len(history), TREND_WINDOW)
        width = max(len(name) for name in normalized)
        print(f"perf trend vs trailing median of last {window} run(s) "
              f"in {history_path.name}:")
        for name, ratio in sorted(normalized.items()):
            baseline = medians.get(name)
            if baseline is None or baseline <= 0:
                print(f"  {name:<{width}}  {ratio:>10.3f}  (no history)")
                continue
            delta = (ratio - baseline) / baseline * 100.0
            print(f"  {name:<{width}}  {ratio:>10.3f}  "
                  f"median {baseline:>8.3f}  {delta:+6.1f}%")
    else:
        print(f"no perf history at {history_path} yet "
              "(--append-history records this run)")
    if args.append_history:
        run_id = (args.run_id if args.run_id
                  else os.environ.get("GITHUB_SHA", "local")[:12])
        append_history(history_path, normalized, calibration, run_id)
        print(f"appended run {run_id!r} to {history_path} "
              f"({len(history) + 1} entries)")

    if args.update:
        payload = {
            "headroom": headroom,
            "note": "ceilings = measured normalized ratio x headroom; "
                    "regenerate with check_benchmark_regression.py --update",
            "max_normalized": {name: round(ratio * headroom, 3)
                               for name, ratio in sorted(normalized.items())},
        }
        atomic_write_text(thresholds_path,
                          json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"updated {thresholds_path} ({len(normalized)} ceilings, "
              f"headroom {headroom}x)")
        return 0

    ceilings = stored.get("max_normalized", {})
    if not ceilings:
        print(f"note: no ceilings in {thresholds_path}; run with --update first")
        return 0
    status = 0
    width = max(len(name) for name in normalized)
    print(f"{'benchmark':<{width}}  {'normalized':>10}  {'ceiling':>8}  verdict")
    for name, ratio in sorted(normalized.items()):
        ceiling = ceilings.get(name)
        if ceiling is None:
            print(f"{name:<{width}}  {ratio:>10.3f}  {'(new)':>8}  SKIP "
                  f"(not in thresholds; rerun --update to gate it)")
            continue
        verdict = "ok" if ratio <= ceiling else "REGRESSION"
        if ratio > ceiling:
            status = 1
        print(f"{name:<{width}}  {ratio:>10.3f}  {ceiling:>8.3f}  {verdict}")
    missing = sorted(set(ceilings) - set(normalized))
    if missing:
        print(f"note: thresholds list benchmarks not in this run: {missing}")
    if status:
        print("FAIL: benchmark regression beyond calibrated ceiling",
              file=sys.stderr)
    else:
        print("OK: all benchmarks within calibrated ceilings")
    return status


if __name__ == "__main__":
    sys.exit(main())
