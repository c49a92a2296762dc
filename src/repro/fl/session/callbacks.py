"""Built-in session callbacks: round-level checkpointing.

:class:`RoundCheckpointer` is an ordinary
:class:`~repro.fl.session.events.SessionCallback` subclass — nothing here
is privileged, and user callbacks compose with it freely.  It never
changes training results: it persists, but never mutates round records
or model state.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Union

from .events import RoundEnd, SessionCallback
from .state import StoreRef, write_incremental_checkpoint

__all__ = ["RoundCheckpointer"]


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

    Three counters land on the session's tracer per write:
    ``checkpoint.bytes`` (the write's I/O volume: one manifest plus the
    segment it packed — not the checkpoint's footprint, which also counts
    the older segments it references), ``checkpoint.encode_s`` (wall-clock
    of the encode + write, measured on the tracer's own clock so no timing
    ever touches the state being persisted) and ``checkpoint.writes``.
    """

    def __init__(self, path: Union[str, Path], every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self.writes = 0
        # The session's store mark at the last write, and where that write
        # left every store: what the next write carries.
        self._mark = None
        self._stores: Dict[int, StoreRef] = {}

    def _segments_on_disk(self) -> bool:
        """Whether every segment the last write left stores in still exists
        (another writer's sweep may have removed one)."""
        names = {ref.segment["file"]: None for ref in self._stores.values()}
        return all((self.path.parent / name).is_file() for name in names)

    def on_round_end(self, session, event: RoundEnd) -> None:
        if (event.round_index + 1) % self.every != 0:
            return
        tracer = session.tracer
        with (nullcontext() if tracer is None
              else tracer.span("checkpoint", round=event.round_index)):
            mark, changed = session.store_changes(self._mark)
            if changed is not None and not self._segments_on_disk():
                changed = None
            state = session.capture_state(client_ids=changed)
            started = tracer.now() if tracer is not None else None
            carried = {}
            if changed is not None:
                # A changed store that is now empty must leave the manifest,
                # so drop every changed id, not just the captured ones.
                dropped = set(changed)
                carried = {client_id: ref
                           for client_id, ref in self._stores.items()
                           if client_id not in dropped}
            self._stores, written = write_incremental_checkpoint(
                state, self.path, carried)
            self._mark = mark
            if tracer is not None:
                tracer.count("checkpoint.encode_s", tracer.now() - started)
                tracer.count("checkpoint.bytes", written)
                tracer.count("checkpoint.writes")
        self.writes += 1
