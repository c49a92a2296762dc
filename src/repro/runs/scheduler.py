"""Sweep scheduler: build and run cells, dispatched over the execution backends.

A cell is one :class:`RunKey`, and :func:`execute_cell` is the one
function that builds and runs it: dataset, partitions, federation, novel
clients, method and :class:`~repro.fl.session.TrainingSession`.  This is
experiment-level parallelism layered *above* the client-level
parallelism of :mod:`repro.fl.execution`: the cells of a sweep are mapped
over an :class:`~repro.fl.execution.ExecutionBackend` with a chunk size
of 1 so every finished cell is persisted immediately — a killed sweep
loses at most the cells in flight.

Determinism: cells are pure functions of their :class:`RunKey` (the
execution engines are bitwise-deterministic), each record lands in a file
named by the key's content hash, and reports read the store in the
sweep's canonical cell order — so sweep results are identical regardless
of scheduler backend or completion order.

When the outer scheduler is parallel, each cell's *inner* client
execution is forced serial: nesting process pools inside pool workers is
where the cores already are, and the inner backend cannot change results
anyway (it is excluded from the cell fingerprint).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..eval.harness import make_dataset, make_encoder_factory, make_partitions
from ..eval.metrics import fairness_report
from ..eval.registry import build_method
from ..fl.client import build_federation, build_novel_clients, derive_rng
from ..fl.execution import resolve_backend
from ..fl.session import RoundCheckpointer, TrainingSession
from ..ioutil import safe_filename
from ..telemetry import TaskOutcome, Tracer, current_tracer, sidecar_lines
from .serialize import RECORD_SCHEMA
from .spec import RunKey, SweepSpec
from .store import ARRAYS_KEY, RunStore

__all__ = ["run_sweep", "execute_cell", "make_record", "SweepSummary",
           "cell_checkpoint_dir"]


def make_record(key: RunKey, result, report, novel_report=None) -> Dict:
    """Assemble the deterministic cell record (no timestamps, no host info)."""
    record = {
        "schema": RECORD_SCHEMA,
        "fingerprint": key.fingerprint,
        "key": key.to_jsonable(),
        "result": result.to_json(),
        "report": report.as_dict(),
    }
    if novel_report is not None:
        record["novel_report"] = novel_report.as_dict()
    return record


def cell_checkpoint_dir(store_root: Union[str, Path], key: RunKey) -> Path:
    """Where a cell's mid-run round checkpoints live under a store.

    One directory per cell fingerprint: the checkpoint is scoped by
    content hash exactly like the cell record, so a resumed sweep under a
    different scheduler still finds it.
    """
    return Path(store_root) / "checkpoints" / key.fingerprint


def execute_cell(key: RunKey, client_backend: Optional[str] = None,
                 client_batch: Optional[int] = None,
                 verbose: bool = False,
                 checkpoint_dir: Union[str, Path, None] = None,
                 checkpoint_every: int = 1,
                 session_hook: Optional[Callable[[str, TrainingSession], None]]
                 = None) -> Dict:
    """Build and run one cell end-to-end and return its store record.

    Everything derives from ``key``, and the session's checkpoint context
    is ``key.fingerprint``: a checkpoint resumes only the cell that wrote
    it.  ``client_backend``/``client_batch`` override the key's execution
    knobs, which change wall-clock only.

    With ``checkpoint_dir`` set, the session writes a round checkpoint to
    ``<checkpoint_dir>/<method>.json`` after every ``checkpoint_every``-th
    round and first resumes from an existing one — a killed cell restarts
    at its last finished round rather than from round 0 (resume is
    bitwise exact, so the record is identical either way).
    ``session_hook(method, session)`` runs right before training starts:
    the seam for attaching callbacks to the cell's session.
    """
    config = key.config.with_overrides(**{
        name: value for name, value in (("backend", client_backend),
                                        ("client_batch", client_batch))
        if value is not None})
    dataset = make_dataset(key.dataset, seed=key.seed, **key.dataset_kwargs)
    partitions = make_partitions(dataset.train.labels, config.num_clients,
                                 key.setting, derive_rng(key.seed + 1))
    encoder_factory = make_encoder_factory(
        key.encoder, dataset, width=key.encoder_width,
        hidden_dims=tuple(key.encoder_hidden_dims), seed=key.seed + 42)

    def novel_partitions(labels, num_clients, rng):
        novel_setting = replace(key.setting, samples_per_client=min(
            key.setting.samples_per_client,
            max(labels.shape[0] // num_clients, 4)))
        return make_partitions(labels, num_clients, novel_setting, rng)

    clients = build_federation(dataset, partitions,
                               test_fraction=config.test_fraction,
                               seed=key.seed + 2)
    novel_clients = build_novel_clients(
        dataset, config.num_novel_clients, novel_partitions,
        test_fraction=config.test_fraction, seed=key.seed + 3)
    algorithm = build_method(key.method, config, dataset.num_classes,
                             encoder_factory, **key.overrides)
    session = TrainingSession(algorithm, clients, config,
                              novel_clients=novel_clients, verbose=verbose,
                              context=key.fingerprint)
    if checkpoint_dir is not None:
        path = Path(checkpoint_dir) / f"{safe_filename(key.method)}.json"
        if path.is_file():
            session.load_checkpoint(path)
            if verbose and session.round_index > 0:
                print(f"  [resume] {key.method} at round "
                      f"{session.round_index}/{config.rounds}")
        session.add_callback(RoundCheckpointer(path, every=checkpoint_every))
    if session_hook is not None:
        session_hook(key.method, session)
    result = session.execute()
    report = fairness_report(result.accuracy_vector())
    novel_report = (fairness_report(result.accuracy_vector(novel=True))
                    if result.novel_accuracies else None)
    return make_record(key, result, report, novel_report)


@dataclass
class _CellTask:
    """Picklable per-cell worker: run, persist, return the record.

    Without a store the record comes back boxed in a
    :class:`~repro.telemetry.TaskOutcome` with the cell's telemetry
    fragment, for :func:`run_sweep` to merge into the caller's tracer.

    Writing from inside the task (rather than on the coordinator after
    ``map`` returns) is what gives crash resumability its
    granularity: the store reflects every completed cell the moment it
    finishes, on every backend including serial.

    ``executor`` is the cell-execution function (default
    :func:`execute_cell`); alternative executors — the embedding figures'
    :func:`~repro.experiments.embeddings.execute_embedding_cell` — must
    be module-level callables (picklable for the process scheduler) with
    the same signature and must return a record carrying at least
    ``fingerprint``, ``result`` and ``report``.
    """

    store_root: Optional[str]
    client_backend: Optional[str] = None
    client_batch: Optional[int] = None
    verbose: bool = False
    round_checkpoints: bool = False
    checkpoint_every: int = 1
    telemetry: bool = True
    executor: Callable[..., Dict] = execute_cell

    def __call__(self, key: RunKey) -> Dict:
        checkpoint_dir = None
        resumed_mid_cell = False
        if self.round_checkpoints and self.store_root is not None:
            checkpoint_dir = cell_checkpoint_dir(self.store_root, key)
            resumed_mid_cell = any(checkpoint_dir.glob("*.json"))
        # The cell's wall clock is the "cell" span's duration: the tracer
        # owns the monotonic-clock reads (repro.telemetry sits outside the
        # DET002 scope by design), and the span lands in the telemetry
        # sidecar only — never in hashed records.  The cell's tracer is
        # always the active one: with a store it becomes the sidecar;
        # without one it travels back as a fragment that run_sweep merges
        # into the caller's tracer, on every scheduler alike.
        tracer = Tracer()
        with tracer.activate(), \
                tracer.span("cell", fingerprint=key.fingerprint,
                            method=key.method, dataset=key.dataset,
                            seed=key.seed):
            record = self.executor(key, client_backend=self.client_backend,
                                   client_batch=self.client_batch,
                                   verbose=self.verbose,
                                   checkpoint_dir=checkpoint_dir,
                                   checkpoint_every=self.checkpoint_every)
        # Bulky numeric columns travel out of the executor under the
        # reserved ARRAYS_KEY; they are popped before the record is
        # persisted (or hashed by anything downstream) and routed to the
        # store's binary arrays/ sidecar.  Without a store they stay
        # attached so ephemeral in-memory runs keep working.
        columns = record.pop(ARRAYS_KEY, None)
        if self.store_root is not None:
            store = RunStore(self.store_root)
            if columns:
                # Sidecar first: a crash between the two writes leaves an
                # unreferenced .npcol (harmless) rather than a record whose
                # arrays are missing.
                store.write_arrays(key, columns)
            store.write_record(record)
            if self.telemetry:
                # A cell resumed from a mid-run checkpoint only recomputed
                # its remaining rounds, so its "cell" span understates the
                # wall clock; the "resumed" meta says so to its readers.
                store.write_telemetry(key, sidecar_lines(tracer, meta={
                    "fingerprint": key.fingerprint,
                    "label": key.label(),
                    "resumed": resumed_mid_cell,
                }))
            if checkpoint_dir is not None:
                # The authoritative cell record exists now; the mid-run
                # checkpoint is stale and must not shadow future reruns.
                shutil.rmtree(checkpoint_dir, ignore_errors=True)
        elif columns:
            record[ARRAYS_KEY] = columns
        if self.verbose:
            mean = record["report"]["mean"]
            print(f"  [cell {key.fingerprint}] {key.label()}: mean={mean:.4f}")
        if self.store_root is None:
            return TaskOutcome(result=record, telemetry=tracer.fragment())
        return record


@dataclass
class SweepSummary:
    """What one scheduler pass did, plus the full grid's records.

    ``records`` aligns 1:1 with ``cells`` (the canonical grid order);
    entries are ``None`` only for cells deferred by ``max_cells``.
    """

    name: str
    cells: List[RunKey]
    records: List[Optional[Dict]]
    executed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    deferred: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(record is not None for record in self.records)

    def describe(self) -> str:
        return (f"sweep {self.name}: executed={len(self.executed)} "
                f"skipped={len(self.skipped)} deferred={len(self.deferred)} "
                f"total={len(self.cells)}")


def run_sweep(sweep: SweepSpec,
              store: Optional[Union[str, Path, RunStore]] = None,
              backend: str = "serial",
              workers: Optional[int] = None,
              max_cells: Optional[int] = None,
              client_backend: Optional[str] = None,
              client_batch: Optional[int] = None,
              round_checkpoints: bool = False,
              checkpoint_every: int = 1,
              executor: Optional[Callable[..., Dict]] = None,
              telemetry: bool = True,
              verbose: bool = False) -> SweepSummary:
    """Run every pending cell of ``sweep``, resuming from ``store``.

    ``store`` may be a path (created on demand), an open :class:`RunStore`,
    or ``None`` for an ephemeral in-memory pass.  ``backend``/``workers``
    pick the *experiment-level* scheduler (any :mod:`repro.fl.execution`
    backend, with its usual graceful serial fallback); ``client_backend``
    overrides each cell's inner client-execution engine and defaults to
    serial whenever the outer scheduler is parallel;  ``client_batch``
    overrides each cell's cohort batching knob
    (:attr:`~repro.fl.config.FederatedConfig.client_batch`) — like the
    inner backend it changes wall-clock only, never the store's bytes.  ``max_cells`` bounds
    how many pending cells this pass may execute (budgeted/smoke runs);
    the rest are reported as deferred.

    ``round_checkpoints`` (requires a store) makes every in-flight cell
    write a round-level session checkpoint under
    ``<store>/checkpoints/<fingerprint>/``: a killed sweep then resumes
    *mid-cell* from the last finished round instead of restarting the
    cell at round 0.  Checkpoints are deleted the moment their cell's
    record persists, and resume is bitwise exact, so the store's bytes
    are identical with the flag on or off.  ``checkpoint_every`` thins
    the writes (checkpoint after every k-th round) when per-round
    serialization costs more than k rounds of recompute are worth.

    ``telemetry`` (default on; requires a store to persist anything)
    makes every executed cell write a ``telemetry/<fingerprint>.jsonl``
    span/counter sidecar next to its record.  Without a store, every
    cell's spans reach the tracer active around the call, if any, under
    every scheduler: each cell records into its own tracer, whose
    fragment is merged here as the cell returns.  Sidecars are diagnostics living outside the
    hashed records — store bytes are identical with the flag on or off
    (the TEL001 invariant) — and they are where a cell's wall clock is
    recorded, so a cell swept with the flag off has no recorded timing.

    ``executor`` swaps the per-cell execution function (default:
    :func:`execute_cell`, a plain training run).  It must be a
    module-level callable (picklable) accepting ``(key, client_backend=,
    client_batch=, verbose=, checkpoint_dir=, checkpoint_every=)`` and
    returning a cell
    record with at least ``fingerprint``/``result``/``report`` — the
    embedding figures use this seam to persist t-SNE payloads alongside
    the training result.
    """
    # Every argument is checked before the store is opened (which
    # creates it), so a rejected call leaves nothing behind.
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be >= 0 or None, got {max_cells}")
    if round_checkpoints and store is None:
        raise ValueError("round_checkpoints=True requires a store "
                         "(checkpoints live under the store root)")
    engine = resolve_backend(backend, workers=workers, chunk_size=1)
    if store is not None and not isinstance(store, RunStore):
        store = RunStore(store)
    cells = sweep.cells()
    done = store.completed_fingerprints() if store is not None else set()

    pending: List[RunKey] = []
    skipped: List[str] = []
    scheduled: set = set()
    for key in cells:
        fingerprint = key.fingerprint
        if fingerprint in done:
            if fingerprint not in skipped:
                skipped.append(fingerprint)
            continue
        if fingerprint in scheduled:  # duplicate cells run once
            continue
        scheduled.add(fingerprint)
        pending.append(key)
    deferred: List[RunKey] = []
    if max_cells is not None and len(pending) > max_cells:
        pending, deferred = pending[:max_cells], pending[max_cells:]

    inner = client_backend
    if inner is None and engine.name != "serial":
        inner = "serial"
    if store is not None:
        store.write_sweep(sweep)
    task = _CellTask(store_root=str(store.root) if store is not None else None,
                     client_backend=inner, client_batch=client_batch,
                     verbose=verbose,
                     round_checkpoints=round_checkpoints,
                     checkpoint_every=checkpoint_every,
                     telemetry=telemetry,
                     executor=executor if executor is not None else execute_cell)
    try:
        outcomes = engine.map(task, pending)
    finally:
        engine.close()
    caller = current_tracer()
    new_records = []
    for outcome in outcomes:
        if isinstance(outcome, TaskOutcome):
            if caller is not None:
                caller.merge_fragment(outcome.telemetry)
            outcome = outcome.result
        new_records.append(outcome)

    by_fingerprint = {record["fingerprint"]: record for record in new_records}
    records: List[Optional[Dict]] = []
    for key in cells:
        fingerprint = key.fingerprint
        if fingerprint in by_fingerprint:
            records.append(by_fingerprint[fingerprint])
        elif store is not None and store.has(fingerprint):
            records.append(store.read_record(fingerprint))
        else:
            records.append(None)
    return SweepSummary(
        name=sweep.name,
        cells=cells,
        records=records,
        executed=[key.fingerprint for key in pending],
        skipped=skipped,
        deferred=[key.fingerprint for key in deferred],
    )
