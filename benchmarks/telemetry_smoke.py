"""Telemetry smoke check (CI guard for ``repro.telemetry``).

Drives the real CLI through the observability surface on a tiny 2-cell
grid (see docs/observability.md):

1. sweep with telemetry (the default) and ``--trace-out`` — every
   executed cell writes a ``telemetry/<fingerprint>.jsonl`` sidecar, and
   the combined Chrome trace passes ``validate_chrome_trace`` with the
   expected span taxonomy present;
2. the same grid swept with ``--no-telemetry`` writes no sidecars and
   produces **byte-identical** cell records — telemetry observes, never
   participates;
3. ``repro profile`` renders a per-phase / per-client breakdown from the
   sidecars alone.

Exits non-zero (with a diagnostic) the moment any step diverges.  The
trace file is left at ``--out`` (default ``telemetry-trace.json``) for
CI artifact upload.

Usage::

    python benchmarks/telemetry_smoke.py [--out trace.json]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from smoke_common import REPO_ROOT, fail, run_cli, summary_counts

sys.path.insert(0, str(REPO_ROOT / "src"))
from repro.telemetry import parse_sidecar, validate_chrome_trace  # noqa: E402

GRID_ARGS = [
    "--exp", "fig3", "--panel", "0", "--methods", "script-fair", "fedavg",
    "--rounds", "2", "--clients", "4", "--samples", "20",
]

EXPECTED_SPANS = ("cell", "session", "round", "sample", "dispatch",
                  "cohort_update", "aggregate", "personalize")


def cell_files(store: Path):
    return sorted((store / "cells").glob("*.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="telemetry-trace.json", metavar="PATH",
                        help="where to leave the Chrome trace (CI artifact)")
    args = parser.parse_args(argv)
    trace_path = Path(args.out).resolve()

    with tempfile.TemporaryDirectory(prefix="telemetry-smoke-") as tmp:
        store = Path(tmp) / "store"

        # 1. traced sweep: sidecars + a valid Perfetto-loadable trace.
        counts = summary_counts(run_cli(
            "sweep", "--quiet", "--runs-dir", str(store),
            "--trace-out", str(trace_path), *GRID_ARGS))
        if counts[0] != 2:
            fail(f"traced sweep: expected executed=2, got {counts}")
        sidecars = sorted((store / "telemetry").glob("*.jsonl"))
        if len(sidecars) != 2:
            fail(f"expected 2 telemetry sidecars, found "
                 f"{[p.name for p in sidecars]}")
        for sidecar in sidecars:
            cell = parse_sidecar(sidecar.read_text())
            if cell.meta.get("schema") != 1:
                fail(f"{sidecar.name}: unexpected sidecar schema "
                     f"{cell.meta.get('schema')!r}")
            names = {span.name for span in cell.spans}
            missing = [name for name in EXPECTED_SPANS if name not in names]
            if missing:
                fail(f"{sidecar.name}: spans missing from taxonomy: {missing} "
                     f"(have {sorted(names)})")
        payload = json.loads(trace_path.read_text())
        problems = validate_chrome_trace(payload)
        if problems:
            fail("trace schema violations:\n" + "\n".join(problems))
        events = payload["traceEvents"]
        print(f"OK: {len(sidecars)} sidecars with the full span taxonomy; "
              f"trace validated ({len(events)} events) at {trace_path}")

        # 2. telemetry never touches the records: --no-telemetry bytes match.
        plain_store = Path(tmp) / "plain-store"
        run_cli("sweep", "--quiet", "--no-telemetry",
                "--runs-dir", str(plain_store), *GRID_ARGS)
        if (plain_store / "telemetry").exists():
            fail("--no-telemetry still wrote a telemetry/ directory")
        traced_cells = cell_files(store)
        plain_cells = cell_files(plain_store)
        if [p.name for p in traced_cells] != [p.name for p in plain_cells]:
            fail(f"telemetry changed the cell set: "
                 f"{[p.name for p in traced_cells]} vs "
                 f"{[p.name for p in plain_cells]}")
        for traced, plain in zip(traced_cells, plain_cells):
            if traced.read_bytes() != plain.read_bytes():
                fail(f"cell {traced.name} differs with telemetry on vs off")
        print("OK: cell records byte-identical with telemetry on and off")

        # 3. the profiler summarizes the store's sidecars.
        profile = run_cli("profile", str(store))
        for needle in ("dispatch", "cohort_update", "straggler_spread",
                       "worker", "rounds=2"):
            if needle not in profile:
                fail(f"repro profile output missing {needle!r}:\n{profile}")
        print("OK: repro profile rendered per-phase/per-client breakdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
