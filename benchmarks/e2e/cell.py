"""One benchmark cell in a fresh process: build, train, personalize, report.

``run.py`` starts this script once per cell, so every cell pays imports
and set-up the way a user's ``repro run`` does, and its peak RSS is its
own.  Usage::

    PYTHONPATH=src python benchmarks/e2e/cell.py '<json spec>'

The spec names the cell (``kind``: ``table1``, ``fig3`` or
``population``), its ``seed``, the client ``backend`` and ``workers``,
``rounds`` (``null`` = the paper config's), ``trace`` and ``t_spawn``
(the parent's monotonic clock when it started this process; on Linux the
clock is shared by all processes).  The last stdout line is one JSON
object with the cell's timings, accuracy, result digest and, when
traced, the raw per-layer totals.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.eval.harness import make_dataset, make_encoder_factory
from repro.eval.metrics import fairness_report
from repro.eval.registry import build_method
from repro.experiments.fig3 import fig3_sweep
from repro.experiments.settings import SCALED_CONFIG, SCALED_DATASET_KWARGS
from repro.experiments.table1 import table1_sweep
from repro.fl import AvailabilitySpec, TrainingSession, VirtualPopulation
from repro.fl.session import RoundCheckpointer, SessionCallback
from repro.ioutil import atomic_write_text
from repro.runs import execute_cell
from repro.telemetry import Tracer, chrome_trace

from ledger import Ledger
from metrics import result_digest

WORK_DIR = Path(__file__).resolve().parent / ".work"
"""Scratch space for checkpoints and Perfetto traces (git-ignored)."""

POPULATION = dict(num_clients=1000, samples_per_client=50,
                  classes_per_client=2, max_resident=32)
CHURN = AvailabilitySpec(availability=0.6, churn=0.4, dropout=0.15,
                         speed_spread=0.3)


class CellTimer(SessionCallback):
    """Timestamps rounds and personalization; counts updates and rounds
    with a non-finite loss.

    It must be the session's last callback so a round's end includes the
    callbacks before it (the population cell's checkpoint).
    """

    def __init__(self):
        self.first_begin = None
        self.round_ends = []
        self.personalized = None
        self.updates = 0
        self.bad_rounds = 0

    def attach(self, _method, session) -> None:
        """The ``session_hook`` signature of ``execute_cell``."""
        session.add_callback(self)

    def on_round_begin(self, session, event) -> None:
        if self.first_begin is None:
            self.first_begin = time.monotonic()

    def on_client_update_done(self, session, event) -> None:
        self.updates += 1

    def on_round_end(self, session, event) -> None:
        self.round_ends.append(time.monotonic())
        record = event.record
        if record.metrics.get("non_finite_losses") or (
                record.participant_ids and not math.isfinite(record.mean_loss)):
            self.bad_rounds += 1

    def on_personalize_done(self, session, event) -> None:
        self.personalized = time.monotonic()


def _paper_key(spec):
    config = SCALED_CONFIG
    if spec["rounds"] is not None:
        config = config.with_overrides(rounds=spec["rounds"])
    if spec["kind"] == "table1":
        cells = [key for key in table1_sweep(variants=["calibre-simclr"],
                                             seeds=[spec["seed"]],
                                             config=config).cells()
                 if key.variant == "ln1-lp1"]
    else:
        cells = fig3_sweep(0, methods=["pfl-simclr"], seeds=[spec["seed"]],
                           config=config).cells()
    (key,) = cells
    return replace(key, config=key.config.with_overrides(
        backend=spec["backend"], workers=spec["workers"]))


def _paper_cell(spec, timer: CellTimer):
    record = execute_cell(_paper_key(spec), client_backend=spec["backend"],
                          session_hook=timer.attach)
    return record["result"], record["report"]["mean"], record["report"]["variance"]


def _population_cell(spec, timer: CellTimer):
    """``calibre-simclr`` over a churned, checkpointed virtual population."""
    seed = spec["seed"]
    config = SCALED_CONFIG.with_overrides(
        seed=seed, num_clients=POPULATION["num_clients"], availability=CHURN,
        aggregation="buffered", aggregation_buffer=3,
        backend=spec["backend"], workers=spec["workers"],
        **({"rounds": spec["rounds"]} if spec["rounds"] is not None else {}))
    dataset = make_dataset("cifar10", seed=seed, **SCALED_DATASET_KWARGS["cifar10"])
    factory = make_encoder_factory("mlp", dataset, seed=seed + 42)
    algorithm = build_method("calibre-simclr", config, dataset.num_classes,
                             factory, num_prototypes=5)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch, \
            VirtualPopulation(dataset, test_fraction=config.test_fraction,
                              seed=seed, **POPULATION) as population:
        session = TrainingSession(algorithm, population, config)
        session.add_callback(RoundCheckpointer(Path(scratch) / "population.json"))
        timer.attach("calibre-simclr", session)
        with session:
            session.run()
            result = session.personalize()
    report = fairness_report(result.accuracy_vector())
    return result.to_json(), report.mean, report.variance


def run(spec) -> dict:
    timer = CellTimer()
    cell = _population_cell if spec["kind"] == "population" else _paper_cell
    ledger = tracer = None
    if spec["trace"]:
        ledger, tracer = Ledger(), Tracer()
        ledger.install()
    started = time.monotonic()
    try:
        if tracer is not None:
            with tracer.activate():
                result, acc_mean, acc_var = cell(spec, timer)
        else:
            result, acc_mean, acc_var = cell(spec, timer)
    finally:
        if ledger is not None:
            ledger.uninstall()
    finished = time.monotonic()
    ends = timer.round_ends
    rounds_s = [ends[0] - timer.first_begin] + [
        later - earlier for earlier, later in zip(ends, ends[1:])]
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "digest": result_digest(result),
        "acc_mean": acc_mean,
        "acc_var": acc_var,
        "accuracies_valid": all(0.0 <= value <= 1.0 for value in
                                 result["accuracies"].values()),
        "rounds_s": rounds_s,
        "updates": timer.updates,
        "bad_rounds": timer.bad_rounds,
        "setup_s": timer.first_begin - spec["t_spawn"],
        "cell_s": finished - started,
        "train_s": ends[-1] - timer.first_begin,
        "personalize_s": timer.personalized - ends[-1],
        "peak_rss_mib": peak_kib / 1024.0,
        "numpy": np.__version__,
    }
    if tracer is not None:
        report["raw"] = ledger.raw(tracer)
        if spec.get("trace_out"):
            atomic_write_text(spec["trace_out"], json.dumps(
                chrome_trace(tracer, process_name=spec.get("label", "cell"))))
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
