"""Tracer mechanics: nesting, counters, ambient activation, fragments."""

import copy
import pickle

from repro.telemetry import (
    InstrumentedTask,
    TaskOutcome,
    TelemetryFragment,
    Tracer,
    count,
    current_tracer,
)


class FakeClock:
    """Deterministic clock: each call returns the previous value + step."""

    def __init__(self, step=1.0):
        self.value = 0.0
        self.step = step

    def __call__(self):
        current = self.value
        self.value += self.step
        return current


def traced_pair():
    """A tracer holding one 'outer' span containing one 'inner' span."""
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer", algorithm="fedavg"):
        with tracer.span("inner", category="client", round=0):
            pass
    return tracer


class TestSpanNesting:
    def test_parent_ids_follow_the_stack(self):
        tracer = traced_pair()
        outer, inner = tracer.spans
        assert outer.name == "outer" and outer.parent_id is None
        assert inner.name == "inner" and inner.parent_id == outer.span_id

    def test_durations_come_from_the_injected_clock(self):
        # FakeClock ticks: epoch=0, outer start=1, inner start=2,
        # inner close=3, outer close=4.
        tracer = traced_pair()
        outer, inner = tracer.spans
        assert (outer.start, outer.duration) == (1.0, 3.0)
        assert (inner.start, inner.duration) == (2.0, 1.0)
        assert inner.end == 3.0

    def test_attrs_and_categories_are_recorded(self):
        outer, inner = traced_pair().spans
        assert outer.attrs == {"algorithm": "fedavg"}
        assert (inner.category, inner.attrs) == ("client", {"round": 0})

    def test_current_span_tracks_the_innermost_open_span(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current_span is None
        with tracer.span("outer") as outer:
            assert tracer.current_span is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_siblings_share_a_parent_and_get_distinct_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round") as parent:
            with tracer.span("sample"):
                pass
            with tracer.span("dispatch"):
                pass
        names = {span.name: span for span in tracer.spans}
        assert names["sample"].parent_id == parent.span_id
        assert names["dispatch"].parent_id == parent.span_id
        assert len({span.span_id for span in tracer.spans}) == 3


class TestCounters:
    def test_counters_accumulate(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.count("bytes", 100.5)
        assert tracer.counters == {"hits": 3.0, "bytes": 100.5}


class TestAmbientTracer:
    def test_module_level_count_is_a_noop_when_inactive(self):
        assert current_tracer() is None
        count("orphan")  # must not raise, must not leak anywhere

    def test_activation_routes_module_level_counts(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.activate():
            assert current_tracer() is tracer
            count("population.realized", 64)
        assert current_tracer() is None
        assert tracer.counters == {"population.realized": 64.0}

    def test_inner_activation_shadows_the_outer(self):
        outer, inner = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with outer.activate():
            with inner.activate():
                count("seen")
            count("seen")
        assert inner.counters == {"seen": 1.0}
        assert outer.counters == {"seen": 1.0}


class TestFragments:
    def worker_fragment(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("client_update", category="client", client_id=7):
            pass
        worker.count("trace.cache_hits", 4)
        return worker.fragment()

    def test_fragment_extent_covers_the_latest_span_end(self):
        fragment = self.worker_fragment()
        assert fragment.extent == fragment.spans[0].end

    def test_fragment_pickle_round_trip(self):
        fragment = self.worker_fragment()
        clone = pickle.loads(pickle.dumps(fragment))
        assert isinstance(clone, TelemetryFragment)
        assert clone.counters == fragment.counters
        assert clone.pid == fragment.pid
        assert [vars(span) for span in clone.spans] \
            == [vars(span) for span in fragment.spans]

    def test_merge_reparents_offsets_and_retids(self):
        coordinator = Tracer(clock=FakeClock())
        fragment = self.worker_fragment()
        with coordinator.span("dispatch") as dispatch:
            merged = coordinator.merge_fragment(fragment)
        (span,) = merged
        assert span.parent_id == dispatch.span_id
        assert span.span_id not in {s.span_id for s in fragment.spans}
        # End-aligned: the fragment's extent lands at the merge instant.
        merge_instant = 2.0  # clock ticks: epoch=0, dispatch start=1, merge=2
        assert span.end == merge_instant
        assert span.duration == fragment.spans[0].duration
        assert span.tid == 1 and dispatch.tid == 0

    def test_merge_keeps_internal_parent_links(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("client_update"):
            with worker.span("local_epoch"):
                pass
        coordinator = Tracer(clock=FakeClock())
        with coordinator.span("dispatch"):
            merged = coordinator.merge_fragment(worker.fragment())
        by_name = {span.name: span for span in merged}
        assert by_name["local_epoch"].parent_id \
            == by_name["client_update"].span_id
        assert by_name["local_epoch"].tid == by_name["client_update"].tid

    def test_each_merged_fragment_gets_a_fresh_tid(self):
        coordinator = Tracer(clock=FakeClock())
        first = coordinator.merge_fragment(self.worker_fragment())
        second = coordinator.merge_fragment(self.worker_fragment())
        assert first[0].tid != second[0].tid

    def test_merge_accumulates_counters(self):
        coordinator = Tracer(clock=FakeClock())
        coordinator.count("trace.cache_hits", 1)
        coordinator.merge_fragment(self.worker_fragment())
        coordinator.merge_fragment(self.worker_fragment())
        assert coordinator.counters == {"trace.cache_hits": 9.0}


def double(item):
    return item * 2


def describe(item):
    return {"client_id": item}


class TestInstrumentedTask:
    def test_boxes_result_with_a_described_span(self):
        task = InstrumentedTask(double, "client_update", describe=describe)
        outcome = task(21)
        assert isinstance(outcome, TaskOutcome)
        assert outcome.result == 42
        (span,) = outcome.telemetry.spans
        assert span.name == "client_update"
        assert span.category == "client"
        assert span.attrs == {"client_id": 21}

    def test_task_tracer_is_ambient_while_the_task_runs(self):
        def task_with_counts(item):
            count("inner.calls")
            return item

        outcome = InstrumentedTask(task_with_counts, "client_update")(1)
        assert outcome.telemetry.counters == {"inner.calls": 1.0}
        assert current_tracer() is None

    def test_wrapper_survives_pickle_and_deepcopy(self):
        task = InstrumentedTask(double, "client_update", describe=describe)
        for clone in (pickle.loads(pickle.dumps(task)), copy.deepcopy(task)):
            outcome = clone(3)
            assert outcome.result == 6
            assert outcome.telemetry.spans[0].attrs == {"client_id": 3}
