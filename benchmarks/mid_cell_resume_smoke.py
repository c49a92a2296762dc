"""Kill-and-resume-mid-cell smoke check (CI guard for the session API).

Where ``sweep_resume_smoke.py`` exercises resume at *cell* granularity,
this drives the round-level checkpoint path end-to-end through the real
CLI and a real SIGKILL:

1. sweep a 1-cell grid to completion in a reference store (no
   checkpoints) — the ground-truth bytes;
2. launch the same sweep with ``--round-checkpoints`` in a subprocess and
   SIGKILL it partway through the cell, after at least two rounds have
   checkpointed — whatever the kill interrupted, the surviving manifest
   and every array segment it references must fully decode via
   ``read_checkpoint``;
3. relaunch — the cell must *resume mid-cell* at the checkpointed round,
   recompute only the remaining rounds (counted from the per-round
   progress lines), and clean its checkpoint up;
4. the resumed store's cell file must be byte-identical to the reference,
   and ``repro report`` must render byte-identically from both stores.

It does so for two cells.  ``fedavg`` keeps no client stores, so each of
its checkpoints is one segment.  ``calibre-simsiam`` keeps every client's
predictor, which the global model does not carry, and 6 of its 10
clients train each round, so its incremental checkpoints reference
several segments: the kill waits for such a manifest.

Exits non-zero (with a diagnostic) the moment any step diverges.

Usage::

    python benchmarks/mid_cell_resume_smoke.py
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from smoke_common import REPO_ROOT, cli_env, fail, run_cli

from repro.fl.session import SEGMENTED_SCHEMA, read_checkpoint
from repro.fl.session.state import checkpoint_segments

ROUNDS = 60  # enough rounds that the kill always lands mid-cell
KILL_AFTER_ROUND = 2

# (method, clients, whether checkpoints carry client stores): one cheap
# method on a scaled-down fig3 panel 0 grid, then Calibre, whose stores
# make its checkpoints incremental.
CELLS = (("fedavg", 4, False), ("calibre-simsiam", 10, True))


def grid_args(method: str, clients: int):
    return ["--exp", "fig3", "--panel", "0", "--methods", method,
            "--rounds", str(ROUNDS), "--clients", str(clients),
            "--samples", "20"]


def checkpoint_manifest(store: Path, method: str):
    """The in-flight cell's checkpoint manifest as a dict, or None."""
    for path in store.glob(f"checkpoints/*/{method}.json"):
        try:
            return json.loads(path.read_text())
        except (ValueError, OSError):
            return None  # mid-replace; try again next poll
    return None


def checkpoint_round(store: Path, method: str):
    """The round_index of the in-flight cell's checkpoint, or None."""
    manifest = checkpoint_manifest(store, method)
    try:
        return None if manifest is None else int(manifest["round_index"])
    except (KeyError, TypeError, ValueError):
        return None


def check_cell(tmp: Path, method: str, clients: int, stores: bool) -> None:
    reference = tmp / f"{method}-reference"
    store = tmp / f"{method}-store"
    args = grid_args(method, clients)
    resume_pattern = re.compile(
        rf"\[resume\] {re.escape(method)} at round (\d+)/(\d+)")
    round_line_pattern = re.compile(
        rf"^\[{re.escape(method)}\] round \d+/\d+ ", re.MULTILINE)

    # 1. Ground truth: the same grid swept uninterrupted.
    run_cli("sweep", "--quiet", "--runs-dir", str(reference), *args)
    reference_cells = sorted((reference / "cells").glob("*.json"))
    if len(reference_cells) != 1:
        fail(f"{method}: expected 1 reference cell, found "
             f"{len(reference_cells)}")

    # 2. Kill a checkpointing sweep mid-cell; a cell with client stores
    #    is killed only once its checkpoint spans several segments.
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "sweep", "--round-checkpoints",
         "--runs-dir", str(store), *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=cli_env(), cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 120
    killed_at = None
    while time.monotonic() < deadline:
        manifest = checkpoint_manifest(store, method)
        round_index = checkpoint_round(store, method)
        ready = round_index is not None and round_index >= KILL_AFTER_ROUND
        if ready and stores:
            ready = manifest.get("schema") == SEGMENTED_SCHEMA
        if ready:
            process.send_signal(signal.SIGKILL)
            process.wait()
            # The checkpoint may have advanced between poll and kill;
            # re-read what actually survived on disk.
            killed_at = checkpoint_round(store, method)
            break
        if process.poll() is not None:
            fail(f"{method}: sweep finished before it could be killed "
                 f"mid-cell; raise ROUNDS (> {ROUNDS}).\n"
                 f"{process.stdout.read()}")
        time.sleep(0.02)
    else:
        process.kill()
        fail(f"{method}: no round checkpoint appeared within 120s")
    if killed_at is None or not KILL_AFTER_ROUND <= killed_at < ROUNDS:
        fail(f"{method}: expected a mid-cell checkpoint in "
             f"[{KILL_AFTER_ROUND}, {ROUNDS}), found {killed_at}")
    if list((store / "cells").glob("*.json")):
        fail(f"{method}: killed sweep must not have persisted its cell "
             "record")
    # The poll above only reads round_index; the atomicity claim is
    # stronger — whatever the SIGKILL interrupted (including a write
    # of the *next* checkpoint), the manifest on disk plus every segment
    # it references must fully decode.
    survivors = list(store.glob(f"checkpoints/*/{method}.json"))
    if len(survivors) != 1:
        fail(f"{method}: expected exactly one surviving checkpoint "
             f"manifest, found {[p.name for p in survivors]}")
    try:
        revived = read_checkpoint(survivors[0])
    except Exception as error:
        fail(f"{method}: surviving checkpoint does not fully decode after "
             f"the SIGKILL: {error}")
    if revived.round_index != killed_at:
        fail(f"{method}: decoded checkpoint is at round "
             f"{revived.round_index}, but the poll saw round {killed_at}")
    segments = len(checkpoint_segments(survivors[0]))
    print(f"OK: {method} sweep SIGKILLed mid-cell with a round-{killed_at} "
          f"checkpoint that fully decodes (manifest + {segments} "
          f"segment(s), {len(revived.client_stores)} client stores)")

    # 3. Relaunch: resume mid-cell, recompute only the remaining rounds.
    out = run_cli("sweep", "--round-checkpoints", "--runs-dir", str(store),
                  *args)
    match = resume_pattern.search(out)
    if not match:
        fail(f"{method}: resumed sweep printed no mid-cell resume "
             f"line:\n{out}")
    resumed_at = int(match.group(1))
    if resumed_at != killed_at:
        fail(f"{method}: resumed at round {resumed_at}, but the surviving "
             f"checkpoint was at round {killed_at}")
    recomputed = len(round_line_pattern.findall(out))
    if recomputed != ROUNDS - resumed_at:
        fail(f"{method}: expected exactly {ROUNDS - resumed_at} recomputed "
             f"rounds ({ROUNDS} total - {resumed_at} checkpointed), counted "
             f"{recomputed} round lines:\n{out}")
    if "executed=1" not in out:
        fail(f"{method}: resumed sweep did not execute the pending "
             f"cell:\n{out}")
    print(f"OK: {method} resumed at round {resumed_at}, recomputed only "
          f"the remaining {recomputed} rounds")

    # 4. Bitwise identity with the uninterrupted run, checkpoint cleanup,
    #    and report stability.
    store_cells = sorted((store / "cells").glob("*.json"))
    if [p.name for p in store_cells] != [p.name for p in reference_cells]:
        fail(f"{method}: cell sets differ: {[p.name for p in store_cells]} "
             f"vs {[p.name for p in reference_cells]}")
    for resumed_path, reference_path in zip(store_cells, reference_cells):
        if resumed_path.read_bytes() != reference_path.read_bytes():
            fail(f"{method}: cell {resumed_path.name} differs between the "
                 "killed-and-resumed store and the uninterrupted reference")
    leftovers = [p for p in store.glob("checkpoints/*") if p.is_dir()]
    if leftovers:
        fail(f"{method}: checkpoints not cleaned up after cell completion: "
             f"{leftovers}")
    report = run_cli("report", "--runs-dir", str(store), *args)
    reference_report = run_cli("report", "--runs-dir", str(reference), *args)
    if report != reference_report:
        fail(f"{method}: resumed store renders a different report than the "
             "reference")
    print(f"OK: {method} resumed store is byte-identical to the "
          "uninterrupted reference (cells and report); checkpoints cleaned "
          "up")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="midcell-smoke-") as tmp:
        for method, clients, stores in CELLS:
            check_cell(Path(tmp), method, clients, stores)
    return 0


if __name__ == "__main__":
    sys.exit(main())
