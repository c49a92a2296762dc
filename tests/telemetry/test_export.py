"""Sidecar jsonl round-trips and Chrome trace-event export/validation."""

import json

from repro.telemetry import (
    TELEMETRY_SCHEMA,
    Tracer,
    chrome_trace,
    chrome_trace_from_cells,
    parse_sidecar,
    sidecar_lines,
    validate_chrome_trace,
)

from .test_spans import FakeClock


def cell_tracer():
    """A small deterministic timeline: cell > round > dispatch."""
    tracer = Tracer(clock=FakeClock())
    with tracer.span("cell", fingerprint="abc", seed=0):
        with tracer.span("round", round=0):
            with tracer.span("dispatch", participants=4):
                pass
    tracer.count("trace.replays", 2)
    return tracer


class TestSidecarRoundTrip:
    def test_meta_header_carries_schema_and_extras(self):
        text = sidecar_lines(cell_tracer(), meta={"fingerprint": "abc",
                                                  "resumed": False})
        cell = parse_sidecar(text)
        assert cell.meta["schema"] == TELEMETRY_SCHEMA
        assert cell.meta["fingerprint"] == "abc"
        assert cell.meta["resumed"] is False

    def test_spans_round_trip_exactly(self):
        tracer = cell_tracer()
        cell = parse_sidecar(sidecar_lines(tracer))
        assert [vars(span) for span in cell.spans] \
            == [vars(span) for span in tracer.spans]

    def test_totals_round_trip(self):
        cell = parse_sidecar(sidecar_lines(cell_tracer()))
        assert cell.counters == {"trace.replays": 2.0}

    def test_every_line_is_one_json_object(self):
        for line in sidecar_lines(cell_tracer()).splitlines():
            assert isinstance(json.loads(line), dict)

    def test_lines_are_a_header_then_spans_then_counters(self):
        kinds = [json.loads(line)["kind"]
                 for line in sidecar_lines(cell_tracer()).splitlines()]
        assert kinds == ["meta", "span", "span", "span", "counter"]

    def test_unknown_kind_lines_are_skipped(self):
        # A sidecar written while tracers still kept gauges holds gauge
        # lines; it must keep parsing.
        text = sidecar_lines(cell_tracer()) \
            + '{"kind": "hologram", "x": 1}\n' \
            + '{"kind": "gauge", "name": "loss", "value": 0.125}\n'
        cell = parse_sidecar(text)
        assert len(cell.spans) == 3
        assert cell.counters == {"trace.replays": 2.0}

    def test_spans_named_and_span_index(self):
        cell = parse_sidecar(sidecar_lines(cell_tracer()))
        (round_span,) = cell.spans_named("round")
        assert round_span.attrs == {"round": 0}
        assert cell.span_index()[round_span.span_id] is round_span


class TestChromeTrace:
    def test_golden_trace_json(self):
        # FakeClock ticks: epoch=0; starts at 1,2,3; closes at 4,5,6.
        tracer = cell_tracer()
        pid = tracer.pid
        assert chrome_trace(tracer, process_name="unit") == {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "ts": 0, "pid": pid,
                 "tid": 0, "args": {"name": "unit"}},
                {"name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
                 "tid": 0, "args": {"name": "coordinator"}},
                {"name": "cell", "cat": "phase", "ph": "X", "ts": 1_000_000,
                 "dur": 5_000_000, "pid": pid, "tid": 0,
                 "args": {"fingerprint": "abc", "seed": 0}},
                {"name": "round", "cat": "phase", "ph": "X", "ts": 2_000_000,
                 "dur": 3_000_000, "pid": pid, "tid": 0,
                 "args": {"round": 0}},
                {"name": "dispatch", "cat": "phase", "ph": "X",
                 "ts": 3_000_000, "dur": 1_000_000, "pid": pid, "tid": 0,
                 "args": {"participants": 4}},
                {"name": "trace.replays", "cat": "counter", "ph": "C",
                 "ts": 6_000_000, "pid": pid, "tid": 0,
                 "args": {"trace.replays": 2.0}},
            ],
            "displayTimeUnit": "ms",
        }

    def test_own_output_validates_clean(self):
        assert validate_chrome_trace(chrome_trace(cell_tracer())) == []

    def test_combined_cells_get_synthetic_process_rows(self):
        cells = [("aaa fedavg", parse_sidecar(sidecar_lines(cell_tracer()))),
                 ("bbb calibre", parse_sidecar(sidecar_lines(cell_tracer())))]
        payload = chrome_trace_from_cells(cells)
        assert validate_chrome_trace(payload) == []
        labels = {event["pid"]: event["args"]["name"]
                  for event in payload["traceEvents"]
                  if event.get("name") == "process_name"}
        assert labels == {1: "aaa fedavg", 2: "bbb calibre"}
        assert all(event["pid"] in (1, 2)
                   for event in payload["traceEvents"])


class TestValidateChromeTrace:
    def test_rejects_non_object_payloads(self):
        assert validate_chrome_trace([]) \
            == ["trace must be a JSON object, got list"]
        assert validate_chrome_trace({"events": []}) \
            == ["trace is missing its 'traceEvents' list"]

    def test_flags_empty_event_lists(self):
        assert validate_chrome_trace({"traceEvents": []}) \
            == ["'traceEvents' is empty"]

    def test_flags_unknown_phases_and_missing_fields(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0},
            {"name": "y", "ph": "X", "ts": 0, "pid": 1, "tid": 0},
        ]})
        assert any("unknown or missing ph 'B'" in p for p in problems)
        assert any("missing 'dur'" in p for p in problems)

    def test_flags_non_integer_and_negative_timestamps(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 1.5, "dur": -2,
             "pid": 1, "tid": 0},
        ]})
        assert any("'ts' must be a non-negative integer" in p
                   for p in problems)
        assert any("'dur' must be a non-negative integer" in p
                   for p in problems)

    def test_flags_non_numeric_counter_args(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "c", "ph": "C", "ts": 0, "pid": 1,
             "args": {"c": "fast"}},
        ]})
        assert problems == [
            "traceEvents[0]: counter args must map names to numbers"]
