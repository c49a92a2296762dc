"""Sweep-resume smoke check (CI guard for the ``repro.runs`` subsystem).

Drives the real CLI through the resume lifecycle on a tiny 2-cell grid:

1. start a sweep with a 1-cell budget — the process exits after one cell,
   standing in for a killed run;
2. relaunch — exactly the unfinished cell recomputes, the finished one is
   recognized by content hash and skipped;
3. relaunch again — nothing recomputes;
4. ``repro report`` renders the table purely from the store, twice,
   byte-identically;
5. the same grid swept under the process scheduler produces bitwise
   identical cell files and an identical report.

Exits non-zero (with a diagnostic) the moment any step diverges.

Usage::

    python benchmarks/sweep_resume_smoke.py
"""

import sys
import tempfile
from pathlib import Path

from smoke_common import fail, run_cli, summary_counts

# 2 cells: two cheap methods on a scaled-down fig3 panel 0 grid.
GRID_ARGS = [
    "--exp", "fig3", "--panel", "0", "--methods", "script-fair", "fedavg",
    "--rounds", "1", "--clients", "4", "--samples", "20",
]


def cell_files(store: Path):
    return sorted((store / "cells").glob("*.json"))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sweep-smoke-") as tmp:
        store = Path(tmp) / "store"
        base = ["--runs-dir", str(store), *GRID_ARGS]

        # 1. interrupted sweep: budget of one cell, then the process exits.
        counts = summary_counts(run_cli("sweep", "--quiet", "--max-cells", "1", *base))
        if counts != (1, 0, 1, 2):
            fail(f"interrupted pass: expected executed=1 skipped=0 deferred=1 "
                 f"total=2, got {counts}")
        if len(cell_files(store)) != 1:
            fail(f"expected 1 cell file after interruption, found "
                 f"{len(cell_files(store))}")

        # 2. resume: exactly the missing cell recomputes.
        counts = summary_counts(run_cli("sweep", "--quiet", *base))
        if counts != (1, 1, 0, 2):
            fail(f"resume pass: expected executed=1 skipped=1, got {counts}")

        # 3. idempotent rerun: nothing recomputes.
        counts = summary_counts(run_cli("sweep", "--quiet", *base))
        if counts != (0, 2, 0, 2):
            fail(f"rerun pass: expected executed=0 skipped=2, got {counts}")
        print("OK: interrupted sweep resumed with exactly one cell recomputed")

        # 4. reporting is a pure store read and is stable byte-for-byte.
        report = run_cli("report", *base)
        if run_cli("report", *base) != report:
            fail("repro report is not byte-stable across invocations")
        for method in ("script-fair", "fedavg"):
            if method not in report:
                fail(f"report is missing method '{method}':\n{report}")
        print("OK: report regenerated byte-identically from the store alone")

        # 5. scheduler independence: process-swept cells match serial bytes.
        process_store = Path(tmp) / "process-store"
        run_cli("sweep", "--quiet", "--scheduler", "process", "--jobs", "2",
                "--runs-dir", str(process_store), *GRID_ARGS)
        serial_cells = cell_files(store)
        process_cells = cell_files(process_store)
        if [p.name for p in serial_cells] != [p.name for p in process_cells]:
            fail(f"schedulers produced different cell sets: "
                 f"{[p.name for p in serial_cells]} vs "
                 f"{[p.name for p in process_cells]}")
        for serial_path, process_path in zip(serial_cells, process_cells):
            if serial_path.read_bytes() != process_path.read_bytes():
                fail(f"cell {serial_path.name} differs between serial and "
                     f"process schedulers")
        process_report = run_cli("report", "--runs-dir", str(process_store),
                                 *GRID_ARGS)
        if process_report != report:
            fail("process-scheduled store renders a different report")
        print("OK: serial and process schedulers produced bitwise-identical "
              "stores and reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
