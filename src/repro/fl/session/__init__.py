"""``repro.fl.session`` — the composable, checkpointable round-loop API.

:class:`TrainingSession` owns an explicit, serializable
:class:`ServerState`, advances it via ``step()``/``run_until()``, emits
typed lifecycle events to registered callbacks, and checkpoints/restores
at round granularity with bitwise-exact resume.
"""

from .callbacks import EarlyStopping, EvalCadence, HistoryStreamer, RoundCheckpointer
from .codec import PackedState, decode_value, encode_value
from .events import (
    AggregateDone,
    ClientUpdateDone,
    EVENT_HOOKS,
    PersonalizeDone,
    RoundBegin,
    RoundEnd,
    SessionCallback,
    SessionEvent,
)
from .session import TrainingSession, default_session_context
from .state import (
    CHECKPOINT_SCHEMA,
    COLUMNAR_SCHEMA,
    SEGMENTED_SCHEMA,
    ServerState,
    checkpoint_total_bytes,
    read_checkpoint,
    remove_checkpoint,
    write_checkpoint,
)

__all__ = [
    "TrainingSession",
    "default_session_context",
    "ServerState",
    "CHECKPOINT_SCHEMA",
    "COLUMNAR_SCHEMA",
    "SEGMENTED_SCHEMA",
    "read_checkpoint",
    "write_checkpoint",
    "remove_checkpoint",
    "checkpoint_total_bytes",
    "encode_value",
    "decode_value",
    "PackedState",
    "SessionEvent",
    "RoundBegin",
    "ClientUpdateDone",
    "AggregateDone",
    "RoundEnd",
    "PersonalizeDone",
    "SessionCallback",
    "EVENT_HOOKS",
    "HistoryStreamer",
    "EvalCadence",
    "EarlyStopping",
    "RoundCheckpointer",
]
