"""Telemetry serialization: jsonl sidecar lines and Chrome trace-event JSON.

Two export shapes share one source of truth (a :class:`~.spans.Tracer`):

* **Sidecar lines** — the ``telemetry.jsonl`` format persisted next to
  each run-store cell (``<store>/telemetry/<fingerprint>.jsonl``).  One
  JSON object per line: a ``meta`` header, then one ``span`` line per
  span and one ``counter`` line per total.  The sidecar is a
  *diagnostic* artifact: it lives outside the hashed cell record, and the
  TEL001 invariant rule keeps it there.

* **Chrome trace-event JSON** — the ``repro run/sweep --trace-out``
  format, loadable in Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Spans become ``"ph": "X"`` complete events
  (microsecond timestamps), counters become one ``"ph": "C"`` event at
  the trace's end, and process/thread labels ship as ``"ph": "M"``
  metadata.  :func:`validate_chrome_trace` checks the shape CI relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .spans import Span, Tracer

__all__ = [
    "TELEMETRY_SCHEMA",
    "sidecar_lines",
    "parse_sidecar",
    "CellTelemetry",
    "chrome_trace",
    "chrome_trace_from_cells",
    "validate_chrome_trace",
]

import json

TELEMETRY_SCHEMA = 1
"""Version of the sidecar line format (bumped on incompatible change)."""


# ----------------------------------------------------------------------
# Sidecar (telemetry.jsonl)
# ----------------------------------------------------------------------
def _span_payload(span: Span) -> Dict:
    payload = {
        "kind": "span",
        "id": span.span_id,
        "name": span.name,
        "cat": span.category,
        "start_s": span.start,
        "dur_s": span.duration,
        "pid": span.pid,
        "tid": span.tid,
    }
    if span.parent_id is not None:
        payload["parent"] = span.parent_id
    if span.attrs:
        payload["attrs"] = span.attrs
    return payload


def sidecar_lines(tracer: Tracer, meta: Optional[Dict] = None) -> str:
    """Render a tracer as ``telemetry.jsonl`` text (meta, spans, totals)."""
    header = {"kind": "meta", "schema": TELEMETRY_SCHEMA}
    header.update(meta or {})
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(_span_payload(span), sort_keys=True)
              for span in tracer.spans]
    lines += [json.dumps({"kind": "counter", "name": name, "value": value},
                         sort_keys=True)
              for name, value in sorted(tracer.counters.items())]
    return "".join(line + "\n" for line in lines)


class CellTelemetry:
    """Parsed contents of one ``telemetry.jsonl`` sidecar."""

    def __init__(self, meta: Dict, spans: List[Span],
                 counters: Dict[str, float]):
        self.meta = meta
        self.spans = spans
        self.counters = counters

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def span_index(self) -> Dict[int, Span]:
        return {span.span_id: span for span in self.spans}


def parse_sidecar(text: str) -> CellTelemetry:
    """Parse ``telemetry.jsonl`` text back into spans and totals.

    Unknown ``kind`` lines are skipped (forward compatibility); a torn or
    malformed line raises ``ValueError`` naming its line number — a
    sidecar is written atomically, so damage means a real bug, not a
    crash artifact.
    """
    meta: Dict = {}
    spans: List[Span] = []
    counters: Dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            kind = payload.get("kind")
            if kind == "meta":
                meta = payload
            elif kind == "span":
                spans.append(Span(
                    span_id=int(payload["id"]),
                    name=payload["name"],
                    category=payload.get("cat", "phase"),
                    start=float(payload["start_s"]),
                    duration=float(payload["dur_s"]),
                    parent_id=payload.get("parent"),
                    pid=int(payload.get("pid", 0)),
                    tid=int(payload.get("tid", 0)),
                    attrs=payload.get("attrs", {}),
                ))
            elif kind == "counter":
                counters[payload["name"]] = float(payload["value"])
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise ValueError(
                f"line {number}: {type(error).__name__}: {error}") from error
    return CellTelemetry(meta=meta, spans=spans, counters=counters)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def _us(seconds: float) -> int:
    return int(round(seconds * 1e6))


def _span_events(spans: Sequence[Span],
                 pid_override: Optional[int] = None) -> List[Dict]:
    events = []
    for span in spans:
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": _us(span.start),
            "dur": _us(span.duration),
            "pid": pid_override if pid_override is not None else span.pid,
            "tid": span.tid,
            "args": dict(span.attrs),
        })
    return events


def _counter_events(counters: Dict[str, float], ts: int, pid: int) -> List[Dict]:
    return [{"name": name, "cat": "counter", "ph": "C", "ts": ts,
             "pid": pid, "tid": 0, "args": {name: value}}
            for name, value in sorted(counters.items())]


def _metadata_event(kind: str, label: str, pid: int, tid: int = 0) -> Dict:
    return {"name": kind, "ph": "M", "ts": 0, "pid": pid, "tid": tid,
            "args": {"name": label}}


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> Dict:
    """One tracer's timeline as a Chrome trace-event JSON object."""
    events: List[Dict] = [_metadata_event("process_name", process_name,
                                          tracer.pid),
                          _metadata_event("thread_name", "coordinator",
                                          tracer.pid)]
    events += _span_events(tracer.spans)
    extent = max((span.end for span in tracer.spans), default=0.0)
    events += _counter_events(tracer.counters, _us(extent), tracer.pid)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_from_cells(
        cells: Sequence[Tuple[str, CellTelemetry]]) -> Dict:
    """A combined trace over many cells' sidecars (one process row each).

    Cross-cell clocks are not comparable (cells may run in different
    processes, sequentially or in parallel), so each cell keeps its own
    relative timeline and is displayed as its own synthetic process,
    labeled by the given name (typically ``<fingerprint> <label>``).
    """
    events: List[Dict] = []
    for index, (name, cell) in enumerate(cells):
        pid = index + 1
        events.append(_metadata_event("process_name", name, pid))
        events += _span_events(cell.spans, pid_override=pid)
        extent = max((span.end for span in cell.spans), default=0.0)
        events += _counter_events(cell.counters, _us(extent), pid)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "C": ("name", "ts", "pid", "args"),
    "M": ("name", "ph", "pid", "args"),
}


def validate_chrome_trace(payload) -> List[str]:
    """Shape-check a Chrome trace-event JSON object; [] when valid.

    Checks the subset of the trace-event format this repo emits and CI
    gates on: a ``traceEvents`` list of dict events, each with a known
    ``ph``, that phase's required fields, non-negative integer
    timestamps/durations, and numeric counter args.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"trace must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["trace is missing its 'traceEvents' list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if phase not in _REQUIRED_BY_PHASE:
            problems.append(f"{where}: unknown or missing ph {phase!r}")
            continue
        for required in _REQUIRED_BY_PHASE[phase]:
            if required not in event:
                problems.append(f"{where}: ph={phase} event missing "
                                f"'{required}'")
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: 'name' must be a non-empty string")
        for numeric in ("ts", "dur"):
            if numeric in event and (
                    not isinstance(event[numeric], int)
                    or event[numeric] < 0):
                problems.append(f"{where}: '{numeric}' must be a "
                                f"non-negative integer")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                    isinstance(value, (int, float))
                    for value in args.values()):
                problems.append(f"{where}: counter args must map names to "
                                f"numbers")
    return problems
