"""Built-in session callbacks: history streaming, eval cadence, early
stopping, and round-level checkpointing.

All four are ordinary :class:`~repro.fl.session.events.SessionCallback`
subclasses — nothing here is privileged, and user callbacks compose with
them freely.  None of them changes training results: they observe, stop,
or persist, but never mutate round records or model state.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from pathlib import Path
from typing import IO, Callable, Dict, List, Optional, Tuple, Union

from .events import PersonalizeDone, RoundEnd, SessionCallback
from .state import StoreRef, remove_checkpoint, write_incremental_checkpoint

__all__ = [
    "HistoryStreamer",
    "EvalCadence",
    "EarlyStopping",
    "RoundCheckpointer",
]


def _session_span(session, name: str, **attrs):
    """A span on the session's tracer, or a no-op when telemetry is off.

    Callbacks fire inside the round loop but may also run against shim
    hosts without a tracer attribute, hence the ``getattr``.
    """
    tracer = getattr(session, "tracer", None)
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)


def _session_count(session, name: str, value: float = 1.0) -> None:
    tracer = getattr(session, "tracer", None)
    if tracer is not None:
        tracer.count(name, value)


class HistoryStreamer(SessionCallback):
    """Stream round records (and the final summary) as JSON lines.

    ``target`` is a path — opened in append mode per write, so a crash
    loses at most the line in flight — or any file-like object with a
    ``write`` method (handy for tests and in-memory capture).
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        self._path: Optional[Path] = None
        self._stream: Optional[IO[str]] = None
        if hasattr(target, "write"):
            self._stream = target
        else:
            self._path = Path(target)

    def _emit_line(self, payload: Dict) -> None:
        line = json.dumps(payload, sort_keys=True) + "\n"
        if self._stream is not None:
            self._stream.write(line)
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # repro: allow[ATM001] -- append-only event stream; consumers tolerate a truncated tail line
        with open(self._path, "a") as stream:
            stream.write(line)

    def on_round_end(self, session, event: RoundEnd) -> None:
        with _session_span(session, "history_write", round=event.round_index):
            self._emit_line({"event": "round",
                             "record": event.record.to_json()})

    def on_personalize_done(self, session, event: PersonalizeDone) -> None:
        with _session_span(session, "history_write"):
            self._emit_line({"event": "result",
                             "algorithm": event.result.algorithm,
                             "summary": event.result.summary()})


class EvalCadence(SessionCallback):
    """Run an evaluation function every ``every`` rounds.

    ``evaluate(session)`` returns a metrics dict; results accumulate in
    :attr:`history` as ``(round_index, metrics)`` pairs.  The cadence
    counts *completed* rounds, so ``every=5`` evaluates after rounds 4,
    9, 14, ….  Round records are never mutated — periodic eval must not
    change what an uninterrupted or resumed run persists.
    """

    def __init__(self, evaluate: Callable[..., Dict[str, float]], every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.evaluate = evaluate
        self.every = every
        self.history: List[Tuple[int, Dict[str, float]]] = []

    def on_round_end(self, session, event: RoundEnd) -> None:
        if (event.round_index + 1) % self.every == 0:
            with _session_span(session, "eval", round=event.round_index):
                self.history.append((event.round_index,
                                     self.evaluate(session)))


class EarlyStopping(SessionCallback):
    """Request a stop when a round metric stops improving.

    Watches ``record.mean_loss`` (the default) or any key of
    ``record.metrics``; non-finite values never count as improvement.
    After ``patience`` consecutive rounds without an improvement of at
    least ``min_delta``, calls ``session.request_stop()`` — the session
    finishes the current round cleanly and ``run_until`` returns early.

    Rounds with no participants at all (availability churn can empty a
    round — see :mod:`repro.fl.population`) neither improve nor consume
    patience: an idle server learns nothing about convergence, so a
    churn-heavy stretch must not trigger a spurious stop.
    """

    def __init__(self, metric: str = "mean_loss", patience: int = 3,
                 min_delta: float = 0.0, mode: str = "min"):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        self.metric = metric
        self.patience = patience
        self.min_delta = min_delta
        self.mode = mode
        self.best: Optional[float] = None
        self.stopped_round: Optional[int] = None
        self._stale_rounds = 0

    def _metric_value(self, record) -> Optional[float]:
        if self.metric == "mean_loss":
            value = record.mean_loss
        else:
            value = record.metrics.get(self.metric)
        if value is None or not math.isfinite(value):
            return None
        return float(value)

    def on_round_end(self, session, event: RoundEnd) -> None:
        if not event.record.participant_ids:
            return
        value = self._metric_value(event.record)
        improved = False
        if value is not None:
            if self.best is None:
                improved = True
            elif self.mode == "min":
                improved = value < self.best - self.min_delta
            else:
                improved = value > self.best + self.min_delta
        if improved:
            self.best = value
            self._stale_rounds = 0
            return
        self._stale_rounds += 1
        if self._stale_rounds >= self.patience and self.stopped_round is None:
            self.stopped_round = event.round_index
            session.request_stop()


class RoundCheckpointer(SessionCallback):
    """Persist the session's :class:`ServerState` after rounds complete.

    One checkpoint, atomically replaced (write-then-``os.replace``, the
    same discipline as the run store) every ``every`` completed rounds — a
    killed run resumes from its last finished checkpointed round instead
    of round 0.  The checkpoint fires on ``round_end``, i.e. *after* the
    session committed the round, so the stored ``round_index`` is the
    next round to execute.

    Writes are incremental
    (:func:`~repro.fl.session.state.write_incremental_checkpoint`): each
    packs one new ``.npcol`` segment with the global, algorithm, sampler
    and availability state plus only the client stores
    :meth:`~repro.fl.session.session.TrainingSession.store_changes`
    reports as changed since this checkpointer's last write, and its
    manifest points every other store at the older segment holding it.
    The first write, the first after a restore, and any write whose older
    segments went missing from disk are full.

    ``keep_last=None`` (default) keeps that single-checkpoint behaviour.
    ``keep_last=N`` switches to *retained history*: each write also lands
    in a numbered sibling (``<stem>-r000007<suffix>`` after round 6
    commits) and only the newest ``N`` numbered manifests survive — older
    ones are pruned after each write, never before, so a crash mid-write
    still leaves the previous ``N`` intact.  :attr:`path` always points
    at the most recent checkpoint, so resume code that only knows the
    base path keeps working.

    Pruning goes through :func:`~repro.fl.session.state.remove_checkpoint`
    — a stale manifest and the segments it alone referenced disappear
    together, and orphaned segments never accumulate.  Two counters land
    on the session tracer per write: ``checkpoint.bytes`` (the write's
    I/O volume: one manifest plus the segment it packed — not the
    checkpoint's footprint, which also counts the older segments it
    references) and ``checkpoint.encode_s`` (wall-clock of the encode +
    write, measured on the tracer's own clock so no timing ever touches
    the state being persisted).
    """

    def __init__(self, path: Union[str, Path], every: int = 1,
                 keep_last: Optional[int] = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be None or >= 1, got {keep_last}")
        self.path = Path(path)
        self.every = every
        self.keep_last = keep_last
        self.writes = 0
        # The session's store mark at the last write, and where that write
        # left every store: what the next write carries.
        self._mark = None
        self._stores: Dict[int, StoreRef] = {}

    def _numbered_path(self, round_index: int) -> Path:
        suffix = self.path.suffix or ".json"
        return self.path.with_name(
            f"{self.path.stem}-r{round_index + 1:06d}{suffix}")

    def retained(self) -> List[Path]:
        """Numbered checkpoints currently on disk, oldest first."""
        suffix = self.path.suffix or ".json"
        pattern = f"{self.path.stem}-r[0-9][0-9][0-9][0-9][0-9][0-9]{suffix}"
        return sorted(self.path.parent.glob(pattern))

    def _segments_on_disk(self) -> bool:
        """Whether every segment the last write left stores in still exists
        (another writer's sweep may have removed one)."""
        names = {ref.segment["file"]: None for ref in self._stores.values()}
        return all((self.path.parent / name).is_file() for name in names)

    def on_round_end(self, session, event: RoundEnd) -> None:
        if (event.round_index + 1) % self.every != 0:
            return
        with _session_span(session, "checkpoint", round=event.round_index):
            mark, changed = session.store_changes(self._mark)
            if changed is not None and not self._segments_on_disk():
                changed = None
            state = session.capture_state(client_ids=changed)
            tracer = getattr(session, "tracer", None)
            started = tracer.now() if tracer is not None else None
            carried = {}
            if changed is not None:
                # A changed store that is now empty must leave the manifest,
                # so drop every changed id, not just the captured ones.
                dropped = set(changed)
                carried = {client_id: ref
                           for client_id, ref in self._stores.items()
                           if client_id not in dropped}
            paths = [self.path]
            if self.keep_last is not None:
                paths.insert(0, self._numbered_path(event.round_index))
            self._stores, written = write_incremental_checkpoint(
                state, paths, carried)
            self._mark = mark
            if self.keep_last is not None:
                for stale in self.retained()[:-self.keep_last]:
                    remove_checkpoint(stale)
            if started is not None:
                _session_count(session, "checkpoint.encode_s",
                               tracer.now() - started)
            _session_count(session, "checkpoint.bytes", written)
            _session_count(session, "checkpoint.writes")
        self.writes += 1
