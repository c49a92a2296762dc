"""Tests of the benchmark's metric math and its agreement with BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
tier-1 suite does not collect them.
"""

from __future__ import annotations

import json
import pickle
import threading
from pathlib import Path

import pytest

import compare
import ledger
import run
from metrics import (
    LayerClock,
    idle_share,
    nearest_rank,
    result_digest,
    samples_beyond,
    spread,
    summarize,
    tail_percentile,
)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Percentile selection
# ----------------------------------------------------------------------
def test_nearest_rank_returns_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 1) == 1.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_samples_beyond_uses_exact_integer_ceiling():
    # 0.8 * 50 is 40.000000000000004 in floating point; rank must be 40.
    assert samples_beyond(50, 80) == 10
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(125, 90) == 12


@pytest.mark.parametrize("count, expected", [
    (1000, 99), (225, 95), (200, 95), (199, 90), (100, 90), (75, 80),
    (50, 80), (49, 75), (40, 75), (39, None), (3, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_summarize_reports_median_tail_and_count():
    values = [float(index) for index in range(1, 101)]
    summary = summarize(values)
    assert summary == {"n": 100, "p50": 50.5, "tail_p": 90, "tail": 90.0}


def test_summarize_falls_back_to_max_for_few_samples():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["tail_p"] is None
    assert summary["tail"] == 3.0
    assert summary["n"] == 3


def test_spread_is_interquartile_distance_over_median():
    values = [float(value) for value in range(1, 11)]  # quartiles 2.75, 8.25
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# ----------------------------------------------------------------------
# Idle share and digests
# ----------------------------------------------------------------------
def test_idle_share():
    assert idle_share(busy_s=3.0, dispatch_s=2.0, workers=2) == pytest.approx(0.25)
    assert idle_share(busy_s=5.0, dispatch_s=2.0, workers=2) == 0.0
    assert idle_share(busy_s=1.0, dispatch_s=0.0, workers=2) == 0.0


def test_result_digest_is_the_run_store_encoding():
    from repro.runs import canonical_json

    import hashlib

    result = {"b": [1, 2.5, float("nan")], "a": {"y": 0.1, "x": "s"}}
    assert result_digest(result) == hashlib.sha256(
        canonical_json(result).encode()).hexdigest()
    assert result_digest(result) == result_digest(dict(reversed(result.items())))
    assert result_digest(result) != result_digest({**result, "a": {}})


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_layer_clock_self_time_excludes_nested_layers():
    clock = FakeClock()
    layers = LayerClock(clock=clock)
    layers.enter("local_loss")
    clock.now = 1.0
    layers.enter("kmeans")
    clock.now = 4.0
    layers.exit()
    clock.now = 5.0
    layers.exit()
    assert layers.totals("inclusive") == {"round/local_loss": 5.0,
                                          "round/kmeans": 3.0}
    assert layers.totals("self") == {"round/local_loss": 2.0,
                                     "round/kmeans": 3.0}
    assert layers.totals("calls") == {"round/local_loss": 1, "round/kmeans": 1}


def test_layer_clock_counts_recursion_once_inclusively():
    clock = FakeClock()
    layers = LayerClock(clock=clock)
    layers.enter("backward")
    clock.now = 1.0
    layers.enter("backward")
    clock.now = 3.0
    layers.exit()
    clock.now = 4.0
    layers.exit()
    assert layers.totals("inclusive") == {"round/backward": 4.0}
    assert layers.totals("self") == {"round/backward": 4.0}


def test_layer_clock_books_phase_and_counts():
    layers = LayerClock(clock=FakeClock())
    layers.phase = "personalize"
    layers.enter("probe")
    layers.exit()
    layers.count("ipc_out", 10)
    layers.count("ipc_out", 5)
    assert set(layers.totals("calls")) == {"personalize/probe"}
    assert layers.totals("counts") == {"personalize/ipc_out": 15}


def test_layer_clock_keeps_one_stack_per_thread():
    layers = LayerClock()
    layers.enter("outer")
    worker = threading.Thread(target=lambda: (layers.enter("pickle"),
                                              layers.exit()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    layers.exit()
    assert layers.totals("calls") == {"round/outer": 1, "round/pickle": 1}
    # The other thread's call is not subtracted from "outer".
    assert layers.totals("self")["round/outer"] == \
        layers.totals("inclusive")["round/outer"]


# ----------------------------------------------------------------------
# Per-layer derivation and the ledger's patches
# ----------------------------------------------------------------------
def test_per_layer_metrics_divide_by_rounds_and_cells():
    raw = {
        "self": {"round/augment": 2.0, "round/forward": 4.0,
                 "round/local_loss": 1.0, "round/kmeans": 1.0,
                 "round/backward": 3.0, "round/optim": 1.0,
                 "round/pickle": 0.5, "personalize/backward": 9.0},
        "inclusive": {"personalize/probe": 6.0, "personalize/features": 2.0},
        "calls": {"round/kmeans": 40, "round/pool_start": 2},
        "counts": {"round/ipc_out": 1000, "round/ipc_in": 3000,
                   "round/ipc_msgs": 20},
        "spans": {"round": 14.0, "sample": 0.4, "aggregate": 0.6,
                  "dispatch": 12.0, "client_update": 18.0},
        "span_counts": {"round": 10},
        "counters": {"trace.replays": 30.0, "population.realized": 8.0},
    }
    values = ledger.per_layer_metrics(raw, cells=2, workers=2,
                                      overhead_frac=0.03)
    assert list(values) == [name for name, _unit, _better in ledger.PER_LAYER]
    assert values["fl.session.round_s"] == pytest.approx(1.4)
    assert values["data.augment_s"] == pytest.approx(0.2)
    assert values["nn.backward_s"] == pytest.approx(0.3)  # training only
    assert values["ledger.coverage_frac"] == pytest.approx(13.0 / 14.0)
    assert values["cluster.kmeans_calls"] == pytest.approx(4.0)
    assert values["fl.execution.ipc_bytes_in"] == pytest.approx(300.0)
    assert values["fl.execution.ipc_msgs"] == pytest.approx(2.0)
    assert values["fl.execution.pool_starts"] == pytest.approx(1.0)
    assert values["fl.execution.idle_share"] == pytest.approx(0.25)
    assert values["nn.trace.replays"] == pytest.approx(3.0)
    assert values["fl.population.realized"] == pytest.approx(4.0)
    assert values["fl.personalization.probe_s"] == pytest.approx(3.0)
    assert values["telemetry.overhead_frac"] == 0.03


def test_merge_raw_sums_sections():
    total = ledger.merge_raw({}, {"self": {"a": 1.0}, "calls": {"a": 1}})
    ledger.merge_raw(total, {"self": {"a": 2.0, "b": 1.0}})
    assert total == {"self": {"a": 3.0, "b": 1.0}, "calls": {"a": 1}}


def test_ledger_patches_are_observed_and_restored():
    import repro.core.calibre as calibre
    from multiprocessing.reduction import ForkingPickler

    original = calibre.cluster_views
    book = ledger.Ledger()
    book.install()
    try:
        assert calibre.cluster_views is not original
        payload = ForkingPickler.dumps({"x": list(range(100))})
        assert pickle.loads(bytes(payload)) == {"x": list(range(100))}
        assert ForkingPickler.loads(payload) == {"x": list(range(100))}
    finally:
        book.uninstall()
    assert calibre.cluster_views is original
    counts = book.clock.totals("counts")
    assert counts["round/ipc_out"] == counts["round/ipc_in"] == len(payload)
    assert counts["round/ipc_msgs"] == 2


# ----------------------------------------------------------------------
# End-to-end aggregation and the benchmark's declared metrics
# ----------------------------------------------------------------------
def _outcome(**overrides):
    outcome = {"setup_s": 0.5, "cell_s": 4.0, "rounds_s": [0.1] * 25,
               "updates": 150, "train_s": 2.5, "personalize_s": 0.2,
               "peak_rss_mib": 120.0, "acc_mean": 0.9, "acc_var": 0.01,
               "bad_rounds": 0, "accuracies_valid": True, "digest": "d"}
    outcome.update(overrides)
    return outcome


def test_end_to_end_aggregates_cells():
    metrics = run.end_to_end([_outcome(), _outcome(cell_s=6.0, acc_mean=0.8,
                                                   peak_rss_mib=130.0),
                              _outcome(cell_s=5.0, rounds_s=[0.2] * 25)])
    assert metrics["cell_s"]["value"] == 5.0
    assert metrics["cell_s"]["n"] == 3
    assert metrics["round_s_p50"]["value"] == 0.1
    assert metrics["round_s_tail"]["value"] == 0.2
    assert metrics["round_s_tail"]["percentile"] == 80
    assert metrics["client_updates_per_s"]["value"] == pytest.approx(60.0)
    assert metrics["peak_rss_mib"]["value"] == 130.0
    assert metrics["acc_mean"]["value"] == pytest.approx(0.8666666666)


def test_cell_failure_reasons():
    assert run.cell_failure(_outcome()) is None
    assert run.cell_failure({"error": "timed out"}) == "timed out"
    assert "non-finite" in run.cell_failure(_outcome(bad_rounds=2))
    assert "outside" in run.cell_failure(_outcome(accuracies_valid=False))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(ledger.PER_LAYER)
    assert BENCHMARK["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == \
        next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


def test_compare_refuses_mixed_environments():
    base = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
            "OPENBLAS_NUM_THREADS": "unset", "git_sha": "a"}
    rows = [{"environment": base},
            {"environment": dict(base, git_sha="b")}]
    assert compare.environment_mismatch(rows) == []
    rows.append({"environment": dict(base, OPENBLAS_NUM_THREADS="1")})
    assert compare.environment_mismatch(rows) == ["OPENBLAS_NUM_THREADS"]
