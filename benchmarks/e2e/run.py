"""End-to-end Calibre benchmark: paper cells timed end to end and by layer.

Usage (from the repository root)::

    python benchmarks/e2e/run.py --seed S [--workload NAME] [--seconds N]
        [--trace 0|1] [--smoke] [--repeat N] [--json OUT] [--label TEXT]

Each workload runs a fixed number of cells sized to ``--seconds`` on a
2-core x86 machine, one fresh subprocess per cell (``cell.py``), serially:
one generating process, closed loop, and at most ``nproc`` pool workers.
Cell seeds are ``S, S+1, ...``.  An untraced run (``--trace 0``) prints
every end-to-end metric; a traced run (``--trace 1``) prints every
per-layer metric.  Both check the cells' results.  The last stdout line
of each workload is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--json OUT`` also appends one row per
workload, with its environment, to a JSONL file (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from ledger import PER_LAYER, merge_raw, per_layer_metrics  # noqa: E402
from metrics import summarize  # noqa: E402


@dataclass(frozen=True)
class Workload:
    kind: str
    backend: str
    cell_s: float
    """Nominal seconds per cell here, spawn included: ``--seconds / cell_s``
    cells make a run, so every commit runs the same work."""
    reference: Optional[str] = None
    """Backend whose result digest every cell must reproduce."""


WORKLOADS: Dict[str, Workload] = {
    "calibre-serial": Workload("table1", "serial", cell_s=4.6),
    "pfl-batched": Workload("fig3", "serial", cell_s=2.2),
    "calibre-process": Workload("table1", "process", cell_s=5.4,
                                reference="serial"),
    "population-churn": Workload("population", "serial", cell_s=13.0),
}

POOL_WORKERS = 1
"""With nproc (2) workers each worker's OpenBLAS threads oversubscribe
the cores and round times flip between two modes (0.25 s / 0.45 s), a
23-38% spread across runs that no bound holds."""

END_TO_END = (
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("round_s_p50", "s"),
    ("client_updates_per_s", "1/s"),
    ("personalize_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("acc_mean", "fraction"),
)

REPORTED = (("round_s_tail", "s"), ("acc_var", "fraction2"))
"""Printed and kept in ``--json`` rows but not in the result line: across
runs with different seeds the tail latency moved up to 36% and the
across-client accuracy variance 16-40%, more than any bound allows."""

SMOKE_ROUNDS = 3
TRACED_CELLS = 2
DEADLINE_S = 170.0
"""A workload run stops starting cells, and kills a running one, after
this long, so it ends inside the 180 s every run is allowed."""
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str:
    """HEAD's commit read from ``.git`` directly (no git process, and no
    parent repository mistaken for this one); "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> Dict[str, object]:
    """What a timing depends on besides the code; compare.py refuses to
    compare rows whose environments differ.  The BLAS variables are read,
    never set: oversubscription is program behaviour to keep visible."""
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": numpy_version,
           "git_sha": git_sha()}
    for name in BLAS_VARIABLES:
        env[name] = os.environ.get(name, "unset")
    return env


def run_cell(spec: Dict, deadline: float) -> Dict:
    """Run one cell in a fresh process group; ``{"error": ...}`` on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spec = dict(spec, t_spawn=time.monotonic())
    process = subprocess.Popen(
        [sys.executable, str(HERE / "cell.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # The group also holds any pool workers the cell started.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if stdout is None:
        return {"error": "timed out"}
    if process.returncode != 0:
        return {"error": f"exit code {process.returncode}"}
    return json.loads(stdout.strip().splitlines()[-1])


def cell_failure(outcome: Dict) -> Optional[str]:
    """Why a finished cell counts as failed, or None."""
    if "error" in outcome:
        return outcome["error"]
    if outcome["bad_rounds"]:
        return f"{outcome['bad_rounds']} round(s) with a non-finite loss"
    if not outcome["accuracies_valid"]:
        return "an accuracy outside [0, 1]"
    return None


def end_to_end(outcomes: List[Dict]) -> Dict[str, Dict]:
    """Every end-to-end metric from the untraced cells that succeeded."""
    rounds = [latency for outcome in outcomes for latency in outcome["rounds_s"]]
    summary = summarize(rounds)
    cells = len(outcomes)
    values = {
        "setup_s": (statistics.median(o["setup_s"] for o in outcomes), cells),
        "cell_s": (statistics.median(o["cell_s"] for o in outcomes), cells),
        "round_s_p50": (summary["p50"], summary["n"]),
        "round_s_tail": (summary["tail"], summary["n"]),
        "client_updates_per_s": (sum(o["updates"] for o in outcomes)
                                 / sum(o["train_s"] for o in outcomes),
                                 sum(o["updates"] for o in outcomes)),
        "personalize_s": (statistics.median(o["personalize_s"] for o in outcomes),
                          cells),
        "peak_rss_mib": (max(o["peak_rss_mib"] for o in outcomes), cells),
        "acc_mean": (statistics.fmean(o["acc_mean"] for o in outcomes), cells),
        "acc_var": (statistics.fmean(o["acc_var"] for o in outcomes), cells),
    }
    metrics = {name: {"value": values[name][0], "unit": unit,
                      "n": values[name][1]}
               for name, unit in END_TO_END + REPORTED}
    metrics["round_s_tail"]["percentile"] = summary["tail_p"]
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    cells = 1 if smoke else max(1, int(seconds / workload.cell_s + 0.5))
    base = {"kind": workload.kind, "backend": workload.backend,
            "workers": POOL_WORKERS,
            "rounds": SMOKE_ROUNDS if smoke else None,
            "trace": False}
    seeds = [seed + offset for offset in range(cells)]
    if trace:
        seeds = seeds[:TRACED_CELLS]
    failures: List[str] = []
    outcomes: List[Dict] = []
    twin = None
    if trace:
        # The same first cell untraced: the overhead baseline, and the
        # "tracing on = off" check.
        twin = run_cell(dict(base, seed=seeds[0]), deadline)
    out_dir = HERE / ".work"
    for cell_seed in seeds:
        label = f"{name}-s{cell_seed}"
        spec = dict(base, seed=cell_seed, trace=trace, label=label,
                    trace_out=str(out_dir / f"{label}.trace.json") if trace else None)
        outcomes.append(run_cell(spec, deadline))
    checked = 0
    for index, (cell_seed, outcome) in enumerate(zip(seeds, outcomes)):
        why = cell_failure(outcome)
        reference = None
        if why is None and trace and index == 0:
            reference = twin
        elif why is None and not trace and workload.reference is not None:
            # After the measured cells, so it never shares the machine
            # with one.
            reference = run_cell(dict(base, seed=cell_seed,
                                      backend=workload.reference), deadline)
        if reference is not None:
            if "digest" not in reference:
                why = f"reference run failed: {reference['error']}"
            elif reference["digest"] != outcome["digest"]:
                why = "result digest differs from the reference run"
            else:
                checked += 1
        if why is not None:
            failures.append(f"cell seed {cell_seed}: {why}")
    good = [outcome for outcome in outcomes if "error" not in outcome]
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "cells": len(outcomes),
              "correct": not failures, "attempted": len(outcomes),
              "failed": len(failures), "failures": failures,
              "digest_checks": checked,
              "digests": [outcome.get("digest") for outcome in outcomes],
              "environment": environment(good[0]["numpy"] if good else "unknown"),
              "metrics": {}}
    if not good:
        return report
    if trace:
        raw: Dict = {}
        for outcome in good:
            merge_raw(raw, outcome["raw"])
        overhead = (outcomes[0]["cell_s"] / twin["cell_s"] - 1.0
                    if "error" not in outcomes[0] and "error" not in twin else 0.0)
        values = per_layer_metrics(raw, len(good), POOL_WORKERS, overhead)
        report["metrics"] = {metric: {"value": values[metric], "unit": unit}
                             for metric, unit, _better in PER_LAYER}
    else:
        report["metrics"] = end_to_end(good)
    return report


def render(report: Dict) -> str:
    mode = "traced" if report["trace"] else "untraced"
    if report["smoke"]:
        mode += ", smoke: never compared"
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"cells {report['cells']}  ({mode})"]
    for metric, entry in report["metrics"].items():
        note = ""
        if "n" in entry:
            note = f"n={entry['n']}"
        if "percentile" in entry:
            tail = entry["percentile"]
            note = f"{'max' if tail is None else f'p{tail}'}, {note}"
        lines.append(f"  {metric:32s} {entry['value']:14.6g} "
                     f"{entry['unit']:12s} {note}")
    verdict = "correct" if report["correct"] else "NOT CORRECT"
    lines.append(f"  {verdict}: {report['failed']} of {report['attempted']} "
                 f"cells failed, {report['digest_checks']} digests cross-checked")
    lines += [f"    {failure}" for failure in report["failures"]]
    env = report["environment"]
    lines.append("  env: " + " ".join(f"{key}={value}" for key, value in env.items()))
    return "\n".join(lines)


def result_line(report: Dict) -> str:
    reported = {name for name, _unit in REPORTED}
    metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
               for name, entry in report["metrics"].items()
               if name not in reported}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def append_rows(path: Path, rows: List[Dict]) -> None:
    from repro.ioutil import atomic_write_text

    existing = path.read_text() if path.is_file() else ""
    atomic_write_text(path, existing + "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in rows))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"1 cell x {SMOKE_ROUNDS} rounds per workload, "
                             "all checks on; numbers are never compared")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--json", type=Path, help="append rows to this JSONL")
    parser.add_argument("--label", default="", help="tag for --json rows")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "runs").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    for _ in range(args.repeat):
        rows = []
        for name in names:
            report = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
            print(render(report))
            print(result_line(report), flush=True)
            rows.append(dict(report, label=args.label))
        if args.json is not None:
            append_rows(args.json, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
