"""Session-level telemetry: span taxonomy on every backend, counter
totals under cohort batching, and the observation-only contract (a traced
run's results are bitwise identical to an untraced run's)."""

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.data import make_cifar10_like
from repro.eval import build_method
from repro.fl import FederatedConfig, TrainingSession, build_federation
from repro.nn import MLPEncoder
from repro.telemetry import Tracer

NUM_CLASSES = 10
IMAGE_SIZE = 6
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(16, 8),
                      rng=np.random.default_rng(7))


def small_config(**overrides):
    defaults = dict(num_clients=4, clients_per_round=4, rounds=2,
                    local_epochs=1, batch_size=4, personalization_epochs=2,
                    seed=0)
    defaults.update(overrides)
    return FederatedConfig(**defaults)


def federation(config, samples_per_client=12, seed=0):
    """Single-class equal-size partitions (shape-homogeneous cohorts)."""
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=48,
                                test_per_class=4, seed=seed)
    labels = dataset.train.labels
    parts = [np.where(labels == c)[0][:samples_per_client]
             for c in range(config.num_clients)]
    return build_federation(dataset, parts, test_fraction=0.25, seed=seed)


def run_traced(name, config, tracer):
    """Build and run a session under ``tracer`` (``None``: untraced)."""
    clients = federation(config)
    algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
    with tracer.activate() if tracer is not None else nullcontext():
        session = TrainingSession(algorithm, clients, config)
        try:
            return session.execute()
        finally:
            session.close()


COORDINATOR_SPANS = ("session", "round", "sample", "dispatch", "aggregate",
                     "personalize")


class TestSpanTaxonomyAcrossBackends:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_full_taxonomy_on_every_backend(self, backend):
        tracer = Tracer()
        config = small_config(backend=backend, workers=2, client_batch=1)
        run_traced("fedavg", config, tracer)
        names = {span.name for span in tracer.spans}
        for expected in COORDINATOR_SPANS:
            assert expected in names, f"{backend}: missing span {expected}"
        assert "cohort_update" in names
        assert "client_update" not in names
        assert "cohort_personalize" in names

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_span_counts_match_the_schedule(self, backend):
        tracer = Tracer()
        config = small_config(backend=backend, workers=2, client_batch=1)
        run_traced("fedavg", config, tracer)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["round"]) == config.rounds
        # client_batch=1: one singleton cohort per participant.
        assert len(by_name["cohort_update"]) \
            == config.rounds * config.clients_per_round
        assert all(span.attrs["cohort_size"] == 1
                   for span in by_name["cohort_update"])
        assert sum(span.attrs["cohort_size"]
                   for span in by_name["cohort_personalize"]) \
            == config.num_clients
        assert len(by_name["cohort_personalize"]) == config.num_clients
        assert len(by_name["session"]) == 1

    def test_client_spans_nest_under_dispatch_with_fresh_tids(self):
        tracer = Tracer()
        run_traced("fedavg", small_config(rounds=1, client_batch=1), tracer)
        index = {span.span_id: span for span in tracer.spans}
        updates = [span for span in tracer.spans
                   if span.name == "cohort_update"]
        assert updates
        for span in updates:
            assert index[span.parent_id].name == "dispatch"
            assert span.tid != 0
            assert span.attrs["round"] == 0
            assert len(span.attrs["client_ids"]) == 1
        assert len({span.tid for span in updates}) == len(updates)

    def test_worker_spans_fit_inside_their_parent(self):
        tracer = Tracer()
        run_traced("fedavg", small_config(rounds=1, client_batch=1,
                                          backend="process", workers=2),
                   tracer)
        index = {span.span_id: span for span in tracer.spans}
        for span in tracer.spans:
            if span.name in ("cohort_update", "cohort_personalize"):
                parent = index[span.parent_id]
                assert span.end <= parent.end + 1e-9


class TestObservationOnly:
    def test_traced_results_bitwise_equal_untraced(self):
        traced = run_traced("fedavg", small_config(), Tracer())
        untraced = run_traced("fedavg", small_config(), None)
        assert json.dumps(traced.to_json()) == json.dumps(untraced.to_json())

    def test_traced_results_bitwise_equal_across_backends(self):
        serial = run_traced("fedavg", small_config(client_batch=1), Tracer())
        process = run_traced("fedavg",
                             small_config(client_batch=1, backend="process",
                                          workers=2), Tracer())
        assert json.dumps(serial.to_json()) == json.dumps(process.to_json())


class TestCohortCounters:
    def test_batched_run_counts_replays_and_cohort_spans(self):
        tracer = Tracer()
        run_traced("pfl-simclr", small_config(client_batch=None), tracer)
        names = {span.name for span in tracer.spans}
        assert "cohort_update" in names
        assert "client_update" not in names
        assert tracer.counters["trace.replays"] >= config_rounds()
        assert tracer.counters["trace.replay_clients"] \
            >= tracer.counters["trace.replays"]
        cohorts = [span for span in tracer.spans
                   if span.name == "cohort_update"]
        assert all(span.attrs["cohort_size"] > 1 for span in cohorts)
        # Per-client attribution survives batching: each round's cohorts
        # name every participant exactly once.
        for round_index in range(config_rounds()):
            ids = [client_id for span in cohorts
                   if span.attrs["round"] == round_index
                   for client_id in span.attrs["client_ids"]]
            assert sorted(ids) == list(range(small_config().num_clients))

    def test_per_client_run_records_no_replay_counters(self):
        tracer = Tracer()
        run_traced("pfl-simclr", small_config(client_batch=1), tracer)
        cohorts = [span for span in tracer.spans
                   if span.name == "cohort_update"]
        assert cohorts
        assert all(span.attrs["cohort_size"] == 1 for span in cohorts)
        assert "trace.replays" not in tracer.counters

    def test_batching_never_changes_results_under_tracing(self):
        batched = run_traced("pfl-simclr", small_config(client_batch=None),
                             Tracer())
        per_client = run_traced("pfl-simclr", small_config(client_batch=1),
                                Tracer())
        assert json.dumps(batched.to_json()) \
            == json.dumps(per_client.to_json())


class TestPersonalizationCohorts:
    @pytest.mark.parametrize("backend,workers,client_batch,sizes", [
        ("serial", 1, None, [4]),
        ("serial", 1, 3, [3, 1]),
        ("serial", 1, 1, [1, 1, 1, 1]),
        ("process", 2, None, [2, 2]),
        ("process", 2, 1, [1, 1, 1, 1]),
    ])
    def test_cohorts_split_by_workers_and_client_batch(self, backend, workers,
                                                       client_batch, sizes):
        tracer = Tracer()
        config = small_config(backend=backend, workers=workers,
                              client_batch=client_batch)
        run_traced("pfl-simclr", config, tracer)
        spans = [span for span in tracer.spans
                 if span.name == "cohort_personalize"]
        assert sorted(span.attrs["cohort_size"] for span in spans) \
            == sorted(sizes)
        assert sum(span.attrs["cohort_size"] for span in spans) \
            == config.num_clients
        assert tracer.counters["probe.replay_clients"] \
            >= tracer.counters["probe.replays"] > 0

    def test_cohort_split_never_changes_results(self):
        whole = run_traced("pfl-simclr", small_config(client_batch=None), None)
        split = run_traced("pfl-simclr",
                           small_config(client_batch=1, backend="process",
                                        workers=2), None)
        assert json.dumps(whole.to_json()) == json.dumps(split.to_json())


def config_rounds():
    return small_config().rounds
