"""Tests for the sweep scheduler: resume, budgets, and determinism."""

from collections import Counter
from functools import lru_cache

import pytest

from repro.eval import NonIIDSetting, format_comparison_table
from repro.fl import FederatedConfig
from repro.runs import (
    RunStore,
    SweepSpec,
    SweepVariant,
    execute_cell,
    outcome_from_records,
    run_sweep,
)
from repro.telemetry import Tracer, load_store_telemetry

TINY_CONFIG = FederatedConfig(num_clients=4, clients_per_round=2, rounds=1,
                              local_epochs=1, batch_size=16,
                              personalization_epochs=2, seed=0)
TINY_DATASET = dict(image_size=8, train_per_class=16, test_per_class=4)


def tiny_sweep(methods=("script-fair", "fedavg"), seeds=(0,),
               variants=(SweepVariant(),)):
    return SweepSpec(
        name="tiny",
        methods=list(methods),
        settings=[NonIIDSetting("dirichlet", 0.5, 20)],
        seeds=list(seeds),
        config=TINY_CONFIG,
        dataset_kwargs={"cifar10": dict(TINY_DATASET)},
        variants=list(variants),
    )


class TestRunSweep:
    def test_ephemeral_pass_returns_all_records(self):
        summary = run_sweep(tiny_sweep())
        assert summary.complete
        assert len(summary.executed) == 2 and not summary.skipped
        assert [r["key"]["method"] for r in summary.records] == [
            "script-fair", "fedavg"]
        for key, record in zip(summary.cells, summary.records):
            assert record["fingerprint"] == key.fingerprint
            assert 0.0 <= record["report"]["mean"] <= 1.0

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        sweep = tiny_sweep()
        first = run_sweep(sweep, store=tmp_path, max_cells=1)
        assert len(first.executed) == 1 and len(first.deferred) == 1
        assert not first.complete

        second = run_sweep(sweep, store=tmp_path)
        # exactly the deferred cell recomputes; the finished one is skipped
        assert len(second.executed) == 1
        assert second.skipped == first.executed
        assert second.complete

        third = run_sweep(sweep, store=tmp_path)
        assert not third.executed and len(third.skipped) == 2
        assert third.complete

    def test_results_identical_across_schedulers(self, tmp_path):
        sweep = tiny_sweep()
        serial_dir, thread_dir = tmp_path / "serial", tmp_path / "thread"
        run_sweep(sweep, store=serial_dir, backend="serial")
        run_sweep(sweep, store=thread_dir, backend="thread", workers=2)
        for key in sweep.cells():
            serial_bytes = RunStore(serial_dir).path_for(key).read_bytes()
            thread_bytes = RunStore(thread_dir).path_for(key).read_bytes()
            assert serial_bytes == thread_bytes

    def test_outcome_from_records_matches_live_run(self, tmp_path):
        # An outcome read back from a store equals one over the records
        # each cell returns live, reports included.
        sweep = tiny_sweep()
        run_sweep(sweep, store=tmp_path)
        stored = RunStore(tmp_path).load_records(sweep.cells())
        live_records = [execute_cell(key) for key in sweep.cells()]
        rebuilt = outcome_from_records(sweep, stored)
        live = outcome_from_records(sweep, live_records)
        assert format_comparison_table(rebuilt) == format_comparison_table(live)
        for method, record in zip(sweep.methods, live_records):
            assert rebuilt.results[method].accuracies == live.results[method].accuracies
            assert rebuilt.reports[method].as_dict() == record["report"]

    def test_outcome_from_records_rejects_duplicate_methods(self):
        # two records of one method at the chosen seed are never silently
        # last-win merged into one outcome
        sweep = tiny_sweep(methods=["script-fair"])
        record = {"key": {"method": "script-fair", "seed": 0},
                  "result": {"algorithm": "script-fair", "accuracies": {"0": 0.5}}}
        with pytest.raises(ValueError):
            outcome_from_records(sweep, [record, dict(record)])

    def test_outcome_from_records_names_missing_methods(self):
        sweep = tiny_sweep()
        record = {"key": {"method": "script-fair", "seed": 0},
                  "result": {"algorithm": "script-fair", "accuracies": {"0": 0.5}}}
        with pytest.raises(KeyError, match="fedavg"):
            outcome_from_records(sweep, [record, None])

    def test_duplicate_cells_execute_once(self, tmp_path):
        # A variant label is cosmetic, so two labels with equal overrides
        # list one cell twice (a repeated method is rejected outright).
        sweep = tiny_sweep(methods=["script-fair"],
                           variants=[SweepVariant("a"), SweepVariant("b")])
        assert len({key.fingerprint for key in sweep.cells()}) == 1
        summary = run_sweep(sweep, store=tmp_path)
        assert len(summary.executed) == 1
        assert len(summary.records) == 2
        assert summary.records[0] is summary.records[1]

    def test_max_cells_zero_executes_nothing(self, tmp_path):
        summary = run_sweep(tiny_sweep(), store=tmp_path, max_cells=0)
        assert not summary.executed and len(summary.deferred) == 2
        with pytest.raises(ValueError):
            run_sweep(tiny_sweep(), max_cells=-1)

    def test_store_holds_sweep_provenance(self, tmp_path):
        sweep = tiny_sweep()
        run_sweep(sweep, store=tmp_path, max_cells=0)
        store = RunStore(tmp_path)
        assert (store.sweeps_dir / "tiny.json").is_file()


@lru_cache(maxsize=None)
def storeless_span_names(backend):
    """Span-name counts a tracer around a store-less 2-cell sweep records."""
    tracer = Tracer()
    with tracer.activate():
        run_sweep(tiny_sweep(), backend=backend, workers=2)
    return Counter(span.name for span in tracer.spans)


class TestSweepTelemetry:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_storeless_sweep_reports_to_the_ambient_tracer(self, backend):
        # With no store there is no sidecar to write, so every cell's
        # spans must reach the tracer active around the call, whichever
        # scheduler ran the cell.
        names = storeless_span_names(backend)
        assert names["cell"] == 2
        assert names["session"] == 2
        assert names["round"] == 2 * TINY_CONFIG.rounds
        assert names == storeless_span_names("serial")

    def test_store_backed_sweep_writes_its_sidecar(self, tmp_path):
        sweep = tiny_sweep(methods=["script-fair"])
        tracer = Tracer()
        with tracer.activate():
            run_sweep(sweep, store=tmp_path)
        (key,) = sweep.cells()
        ((fingerprint, cell),) = load_store_telemetry(str(tmp_path))
        assert fingerprint == key.fingerprint
        assert len(cell.spans_named("cell")) == 1
        assert len(cell.spans_named("session")) == 1
        assert len(cell.spans_named("round")) == TINY_CONFIG.rounds
        # The cell's spans went to its sidecar, not to the caller.
        assert not [span for span in tracer.spans if span.name == "session"]
