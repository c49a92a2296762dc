"""Span tracing and counters: the observability core.

A :class:`Tracer` records *nested spans* — named intervals measured on the
monotonic clock — plus named *counters* (monotonic accumulators).  The
span taxonomy mirrors the execution stack top-down::

    sweep → cell → round → {sample, dispatch, cohort_update[i],
                            aggregate, checkpoint} → personalize

Coordinator-side code opens spans directly (``with tracer.span(...)``);
worker-side code — client tasks, run inline or in a pool worker —
records into a private per-task tracer whose :class:`TelemetryFragment`
travels back picklably with the result and is merged into the
coordinator's tracer by :meth:`Tracer.merge_fragment`.  Per-process
monotonic clocks are not comparable, so merged fragments are placed by
*offset*: a fragment's extent is aligned to end at the merge instant (the
moment the coordinator consumed the result), which keeps every worker
span inside its enclosing dispatch span; durations — the quantity every
downstream consumer aggregates — are exact either way.

Low-level modules that have no tracer reference (the virtual population,
the trace/replay engine) report through the *ambient* tracer: :func:`count`
writes to the innermost :meth:`Tracer.activate` context on the current
thread and no-ops when none is active, so instrumentation costs one
thread-local read when telemetry is off.  A session takes the ambient
tracer when it is built.

Determinism contract: telemetry only ever *observes*.  Nothing here feeds
results, records, checkpoints, or fingerprints — sidecar files and trace
exports live next to the store's hashed records, never inside them
(enforced by the TEL001 invariant rule).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TelemetryFragment",
    "InstrumentedTask",
    "TaskOutcome",
    "current_tracer",
    "count",
]


@dataclass
class Span:
    """One named, closed interval on a tracer's timeline.

    ``start`` is seconds since the owning tracer's epoch (its construction
    instant); ``duration`` is monotonic-clock elapsed seconds.  ``pid``
    and ``tid`` are display coordinates for trace viewers: ``tid`` 0 is
    the coordinator's own timeline, merged worker fragments get fresh
    tids so concurrent client spans land on separate tracks.
    """

    span_id: int
    name: str
    category: str
    start: float
    duration: float
    parent_id: Optional[int]
    pid: int
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class Tracer:
    """Collects spans and counters for one timeline.

    Not thread-safe by design: a tracer belongs to exactly one thread
    (the session coordinator, or one worker task).  Cross-thread and
    cross-process results arrive as :class:`TelemetryFragment`\\ s and are
    merged on the owning thread.

    ``clock`` is injectable for deterministic tests; production uses
    ``time.perf_counter`` (monotonic, high resolution).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 1
        self._next_tid = 1
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return self._clock() - self._epoch

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span on this tracer, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, category: str = "phase",
             **attrs) -> Iterator[Span]:
        """Open a nested span; closed (duration fixed) on context exit."""
        entry = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start=self.now(),
            duration=0.0,
            parent_id=(self._stack[-1].span_id if self._stack else None),
            pid=self.pid,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(entry)
        self._stack.append(entry)
        try:
            yield entry
        finally:
            self._stack.pop()
            entry.duration = self.now() - entry.start

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    # ------------------------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this the ambient tracer for the current thread.

        Nests: a worker task activating its fragment tracer inside a
        coordinator whose session tracer is active shadows it for the
        task's duration, so module-level :func:`count` calls always land
        on the innermost collector.
        """
        stack = _active_stack()
        stack.append(self)
        try:
            yield self
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    def fragment(self) -> "TelemetryFragment":
        """A picklable capture of everything recorded so far."""
        extent = max((span.end for span in self.spans), default=0.0)
        return TelemetryFragment(
            spans=[Span(span_id=span.span_id, name=span.name,
                        category=span.category, start=span.start,
                        duration=span.duration, parent_id=span.parent_id,
                        pid=span.pid, tid=span.tid, attrs=dict(span.attrs))
                   for span in self.spans],
            counters=dict(self.counters),
            pid=self.pid,
            extent=extent,
        )

    def merge_fragment(self, fragment: "TelemetryFragment",
                       parent: Optional[Span] = None) -> List[Span]:
        """Fold a worker fragment into this timeline.

        Span ids are remapped into this tracer's id space; the fragment's
        root spans are reparented under ``parent`` (default: the innermost
        open span); every span is shifted by one per-fragment offset so
        the fragment's extent ends at the merge instant; and the whole
        fragment gets a fresh ``tid`` so its spans render on their own
        track.  Counters accumulate.
        """
        if parent is None:
            parent = self.current_span
        offset = self.now() - fragment.extent
        tid = self._next_tid
        self._next_tid += 1
        id_map: Dict[int, int] = {}
        merged: List[Span] = []
        for span in fragment.spans:
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        for span in fragment.spans:
            if span.parent_id is not None and span.parent_id in id_map:
                parent_id = id_map[span.parent_id]
            else:
                parent_id = parent.span_id if parent is not None else None
            merged.append(Span(
                span_id=id_map[span.span_id],
                name=span.name,
                category=span.category,
                start=span.start + offset,
                duration=span.duration,
                parent_id=parent_id,
                pid=span.pid,
                tid=tid,
                attrs=dict(span.attrs),
            ))
        self.spans.extend(merged)
        for name, value in sorted(fragment.counters.items()):
            self.count(name, value)
        return merged


@dataclass
class TelemetryFragment:
    """What one worker task ships back: spans (fragment-relative times),
    counter totals, and the recording process's pid.

    Everything is plain data — lists, dicts, floats — so fragments pickle
    across the process backend.
    """

    spans: List[Span]
    counters: Dict[str, float]
    pid: int
    extent: float


# ----------------------------------------------------------------------
# Ambient tracer (thread-local activation stack)
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


def _active_stack() -> List[Tracer]:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


def current_tracer() -> Optional[Tracer]:
    """The innermost tracer activated on this thread, or None."""
    stack = _active_stack()
    return stack[-1] if stack else None


def count(name: str, value: float = 1.0) -> None:
    """Increment a counter on the ambient tracer; no-op when inactive."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.count(name, value)


# ----------------------------------------------------------------------
# Worker-side task instrumentation
# ----------------------------------------------------------------------
@dataclass
class TaskOutcome:
    """An instrumented task's return value: the wrapped task's result plus
    the telemetry fragment recorded around it."""

    result: object
    telemetry: TelemetryFragment


class InstrumentedTask:
    """Wrap a pure execution task so each invocation records a span.

    The wrapper is as picklable as the task it wraps (the process
    backend pickles tasks per chunk), and it is *transparent* to
    determinism: the task runs unchanged, only its return value is boxed
    into a :class:`TaskOutcome` carrying the fragment.

    ``describe`` (optional, module-level for picklability) maps the task's
    item to the span's attrs dict — the session uses it to tag each
    ``cohort_update`` span with its round, cohort size and client ids.
    """

    def __init__(self, task: Callable, span_name: str,
                 category: str = "client",
                 describe: Optional[Callable[[object], Dict]] = None):
        self.task = task
        self.span_name = span_name
        self.category = category
        self.describe = describe

    def __call__(self, item) -> TaskOutcome:
        tracer = Tracer()
        attrs = self.describe(item) if self.describe is not None else {}
        with tracer.activate(), \
                tracer.span(self.span_name, category=self.category, **attrs):
            result = self.task(item)
        return TaskOutcome(result=result, telemetry=tracer.fragment())
