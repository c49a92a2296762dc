"""Typed lifecycle events and the callback interface of a session.

A :class:`~repro.fl.session.TrainingSession` emits one event object at
each seam of the round loop, in a fixed order per round::

    round_begin
      client_update_done   (one per participant, in completion order)
    aggregate_done
    round_end
    ...
    personalize_done       (once, after the personalization stage)

Callbacks subclass :class:`SessionCallback`, override the hooks they
care about, and are registered with ``session.add_callback(...)``; every
default hook delegates to :meth:`SessionCallback.on_event`, so a
catch-all observer only needs to override that one method.  Hooks run
synchronously on the coordinating thread, in registration order — a
callback may read session state freely and may call
``session.save_checkpoint(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from ..algorithm import ClientUpdate
from ..history import RoundRecord, RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import TrainingSession

__all__ = [
    "SessionEvent",
    "RoundBegin",
    "ClientUpdateDone",
    "AggregateDone",
    "RoundEnd",
    "PersonalizeDone",
    "SessionCallback",
    "EVENT_HOOKS",
]


@dataclass(frozen=True)
class SessionEvent:
    """Base class of everything a session emits."""


@dataclass(frozen=True)
class RoundBegin(SessionEvent):
    """A round is starting; participants have been sampled."""

    round_index: int
    participant_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ClientUpdateDone(SessionEvent):
    """One participant's local update completed (and was handed to the
    aggregator).  Fires in *completion* order under parallel backends;
    ``update`` is the client's full :class:`ClientUpdate`."""

    round_index: int
    client_id: int
    update: ClientUpdate


@dataclass(frozen=True)
class AggregateDone(SessionEvent):
    """All updates of the round are folded into the next global state."""

    round_index: int
    num_updates: int


@dataclass(frozen=True)
class RoundEnd(SessionEvent):
    """The round is fully committed: state advanced, record appended.

    Fires *after* the session state moved to ``round_index + 1``, so a
    checkpoint taken here resumes at the next round.
    """

    round_index: int
    record: RoundRecord


@dataclass(frozen=True)
class PersonalizeDone(SessionEvent):
    """The personalization stage finished with the run's final result."""

    result: RunResult


class SessionCallback:
    """Observer of session lifecycle events; override what you need."""

    def on_event(self, session: "TrainingSession", event: SessionEvent) -> None:
        """Catch-all hook; every default per-event hook lands here."""

    def on_round_begin(self, session: "TrainingSession",
                       event: RoundBegin) -> None:
        self.on_event(session, event)

    def on_client_update_done(self, session: "TrainingSession",
                              event: ClientUpdateDone) -> None:
        self.on_event(session, event)

    def on_aggregate_done(self, session: "TrainingSession",
                          event: AggregateDone) -> None:
        self.on_event(session, event)

    def on_round_end(self, session: "TrainingSession", event: RoundEnd) -> None:
        self.on_event(session, event)

    def on_personalize_done(self, session: "TrainingSession",
                            event: PersonalizeDone) -> None:
        self.on_event(session, event)


EVENT_HOOKS: Dict[type, str] = {
    RoundBegin: "on_round_begin",
    ClientUpdateDone: "on_client_update_done",
    AggregateDone: "on_aggregate_done",
    RoundEnd: "on_round_end",
    PersonalizeDone: "on_personalize_done",
}
"""Event type → callback hook name (the session's dispatch table)."""
