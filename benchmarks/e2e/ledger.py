"""Per-layer ledger of the benchmark's traced runs.

Two sources feed it:

* wrappers installed from this file around each layer's public functions,
  patched where the caller looks the name up (``cluster_views`` as seen by
  ``repro.core.calibre``, ``pack_store`` as seen by the session), timed by
  a :class:`metrics.LayerClock` so nested layers report self time;
* the spans and counters the program already emits through the
  ``repro.telemetry.Tracer`` the cell activates.

Wrappers run in the process that installed them.  Under the process
backend the pool forks after installation, so worker-side layers record
into worker memory and read 0 here; only coordinator-side layers and the
worker spans the Tracer ships back are visible for that workload.

``repro`` is imported inside :meth:`Ledger.install` only, so ``run.py``
can use :func:`per_layer_metrics` without numpy.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, List, Tuple

from metrics import LayerClock, idle_share

WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    # (layer, module the caller looks the name up in, attribute path)
    ("augment", "repro.data.augment", "TwoViewAugment.__call__"),
    ("forward", "repro.ssl.simclr", "SimCLR.compute"),
    ("backward", "repro.nn.tensor", "Tensor.backward"),
    ("optim", "repro.nn.optim", "SGD.step"),  # BatchedSGD inherits it
    ("replay", "repro.nn.trace", "BatchedReplay.run"),
    ("local_loss", "repro.core.calibre", "Calibre.local_loss"),
    ("kmeans", "repro.core.calibre", "cluster_views"),
    ("pack", "repro.fl.session.session", "pack_store"),
    ("pack", "repro.fl.session.session", "unpack_store"),
    ("realize", "repro.fl.population.virtual", "VirtualPopulation.realize_round"),
    ("probe", "repro.fl.algorithm", "train_linear_probe"),
    ("features", "repro.baselines.pfl_ssl", "PFLSSL.extract_features"),
    ("pool_start", "concurrent.futures.process", "ProcessPoolExecutor.__init__"),
)

PERSONALIZE = ("repro.fl.session.session", "TrainingSession.personalize")
"""Calls inside this method are booked to the ``personalize`` phase."""

PICKLER = ("multiprocessing.reduction", "ForkingPickler")
"""The pickler behind every pool queue: tasks out, results in."""

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("fl.session.round_s", "s/round", "lower"),
    ("ledger.coverage_frac", "fraction", "higher"),
    ("data.augment_s", "s/round", "lower"),
    ("ssl.forward_s", "s/round", "lower"),
    ("nn.backward_s", "s/round", "lower"),
    ("nn.optim_s", "s/round", "lower"),
    ("nn.trace.replay_s", "s/round", "lower"),
    ("nn.trace.replays", "count/round", "higher"),
    ("nn.trace.replay_clients", "count/round", "higher"),
    ("nn.trace.cache_misses", "count/round", "lower"),
    ("core.local_loss_s", "s/round", "lower"),
    ("cluster.kmeans_s", "s/round", "lower"),
    ("cluster.kmeans_calls", "count/round", "lower"),
    ("fl.session.sample_s", "s/round", "lower"),
    ("fl.session.dispatch_s", "s/round", "lower"),
    ("fl.session.client_update_s", "s/round", "lower"),
    ("fl.session.aggregate_s", "s/round", "lower"),
    ("fl.session.codec.pack_s", "s/round", "lower"),
    ("fl.session.checkpoint_s", "s/round", "lower"),
    ("arrays.checkpoint_bytes", "bytes/round", "lower"),
    ("fl.execution.ipc_bytes_out", "bytes/round", "lower"),
    ("fl.execution.ipc_bytes_in", "bytes/round", "lower"),
    ("fl.execution.ipc_msgs", "count/round", "lower"),
    ("fl.execution.pickle_s", "s/round", "lower"),
    ("fl.execution.pool_starts", "count/cell", "lower"),
    ("fl.execution.idle_share", "fraction", "lower"),
    ("data.shm.segment_bytes", "bytes/cell", "lower"),
    ("fl.population.realize_s", "s/round", "lower"),
    ("fl.population.realized", "count/cell", "lower"),
    ("fl.population.evicted", "count/cell", "lower"),
    ("fl.population.dropouts", "count/cell", "lower"),
    ("fl.personalization.probe_s", "s/cell", "lower"),
    ("fl.personalization.features_s", "s/cell", "lower"),
    ("telemetry.overhead_frac", "fraction", "lower"),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``Class.attr`` or ``function``."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Ledger:
    """Installs the layer wrappers and collects what they and a Tracer saw."""

    def __init__(self):
        self.clock = LayerClock()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, layer: str, function):
        clock = self.clock

        @functools.wraps(function)
        def timed(*args, **kwargs):
            clock.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                clock.exit()

        return timed

    def install(self) -> None:
        for layer, module_name, path in WRAPPED:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._timed(layer, owner.__dict__[attr]))

        owner, attr = _resolve(*PERSONALIZE)
        personalize = owner.__dict__[attr]
        clock = self.clock

        @functools.wraps(personalize)
        def booked(*args, **kwargs):
            previous, clock.phase = clock.phase, "personalize"
            try:
                return personalize(*args, **kwargs)
            finally:
                clock.phase = previous

        self._patch(owner, attr, booked)

        pickler = getattr(importlib.import_module(PICKLER[0]), PICKLER[1])
        dumps = pickler.__dict__["dumps"].__func__
        loads = pickler.__dict__["loads"]

        def counted_dumps(cls, obj, protocol=None):
            clock.enter("pickle")
            try:
                payload = dumps(cls, obj, protocol)
            finally:
                clock.exit()
            clock.count("ipc_out", memoryview(payload).nbytes)
            clock.count("ipc_msgs", 1)
            return payload

        def counted_loads(payload, /, *args, **kwargs):
            clock.count("ipc_in", memoryview(payload).nbytes)
            clock.count("ipc_msgs", 1)
            clock.enter("pickle")
            try:
                return loads(payload, *args, **kwargs)
            finally:
                clock.exit()

        self._patch(pickler, "dumps", classmethod(counted_dumps))
        self._patch(pickler, "loads", staticmethod(counted_loads))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def raw(self, tracer) -> Dict[str, Dict[str, float]]:
        """Totals of one cell, in the shape :func:`merge_raw` sums."""
        spans: Dict[str, float] = {}
        span_counts: Dict[str, float] = {}
        for span in tracer.spans:
            spans[span.name] = spans.get(span.name, 0.0) + span.duration
            span_counts[span.name] = span_counts.get(span.name, 0) + 1
        return {
            **{section: self.clock.totals(section)
               for section in ("self", "inclusive", "calls", "counts")},
            "spans": spans,
            "span_counts": span_counts,
            "counters": dict(tracer.counters),
        }


def merge_raw(total: Dict[str, Dict[str, float]],
              cell: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum one cell's raw totals into ``total`` (returned, updated)."""
    for section, values in cell.items():
        bucket = total.setdefault(section, {})
        for name, value in values.items():
            bucket[name] = bucket.get(name, 0) + value
    return total


def per_layer_metrics(raw: Dict[str, Dict[str, float]], cells: int,
                      workers: int, overhead_frac: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the summed raw totals of
    ``cells`` traced cells.  Layer times are training-phase self times
    per round; personalization times are inclusive, per cell."""
    rounds = max(raw.get("span_counts", {}).get("round", 0), 1)
    self_time = raw.get("self", {})
    inclusive = raw.get("inclusive", {})
    calls = raw.get("calls", {})
    counts = raw.get("counts", {})
    spans = raw.get("spans", {})
    counters = raw.get("counters", {})

    def layer(name: str) -> float:
        return self_time.get(f"round/{name}", 0.0) / rounds

    def span(*names: str) -> float:
        return sum(spans.get(name, 0.0) for name in names) / rounds

    def counter(name: str, per: int) -> float:
        return counters.get(name, 0.0) / per

    round_s = span("round")
    covered = (sum(layer(name) for name in (
        "augment", "forward", "local_loss", "kmeans", "backward", "optim",
        "replay")) + span("sample", "aggregate"))
    client_update_s = span("client_update", "cohort_update")
    dispatch_s = span("dispatch")
    values = {
        "fl.session.round_s": round_s,
        "ledger.coverage_frac": covered / round_s if round_s > 0 else 0.0,
        "data.augment_s": layer("augment"),
        "ssl.forward_s": layer("forward"),
        "nn.backward_s": layer("backward"),
        "nn.optim_s": layer("optim"),
        "nn.trace.replay_s": layer("replay"),
        "nn.trace.replays": counter("trace.replays", rounds),
        "nn.trace.replay_clients": counter("trace.replay_clients", rounds),
        "nn.trace.cache_misses": counter("trace.cache_misses", rounds),
        "core.local_loss_s": layer("local_loss"),
        "cluster.kmeans_s": layer("kmeans"),
        "cluster.kmeans_calls": calls.get("round/kmeans", 0) / rounds,
        "fl.session.sample_s": span("sample"),
        "fl.session.dispatch_s": dispatch_s,
        "fl.session.client_update_s": client_update_s,
        "fl.session.aggregate_s": span("aggregate"),
        "fl.session.codec.pack_s": layer("pack"),
        "fl.session.checkpoint_s": span("checkpoint"),
        "arrays.checkpoint_bytes": counter("checkpoint.bytes", rounds),
        "fl.execution.ipc_bytes_out": counts.get("round/ipc_out", 0) / rounds,
        "fl.execution.ipc_bytes_in": counts.get("round/ipc_in", 0) / rounds,
        "fl.execution.ipc_msgs": counts.get("round/ipc_msgs", 0) / rounds,
        "fl.execution.pickle_s": layer("pickle"),
        "fl.execution.pool_starts": sum(
            count for key, count in calls.items()
            if key.endswith("/pool_start")) / cells,
        "fl.execution.idle_share": idle_share(client_update_s, dispatch_s,
                                              workers),
        "data.shm.segment_bytes": counter("shm.segment_bytes", cells),
        "fl.population.realize_s": layer("realize"),
        "fl.population.realized": counter("population.realized", cells),
        "fl.population.evicted": counter("population.evicted", cells),
        "fl.population.dropouts": counter("round.dropouts", cells),
        "fl.personalization.probe_s":
            inclusive.get("personalize/probe", 0.0) / cells,
        "fl.personalization.features_s":
            inclusive.get("personalize/features", 0.0) / cells,
        "telemetry.overhead_frac": overhead_frac,
    }
    return {name: values[name] for name, _unit, _better in PER_LAYER}
