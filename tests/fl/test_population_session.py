"""Integration tests: TrainingSession over a VirtualPopulation.

Covers the population-plane session contracts from docs/population.md:
bitwise backend equivalence under churn, O(active) realization, resume
purity of the availability cursor, default-omitted config fingerprints,
and population-wide personalization under the residency budget.
"""

import json
import warnings

import numpy as np
import pytest

from repro.data import partition_iid
from repro.data.synthetic import SyntheticImageDataset
from repro.eval.harness import make_encoder_factory
from repro.eval.registry import build_method
from repro.fl import (
    AvailabilitySpec,
    FederatedConfig,
    TrainingSession,
    VirtualPopulation,
    build_novel_clients,
    read_checkpoint,
)
from repro.runs.serialize import DEFAULT_OMITTED_FIELDS, config_to_jsonable
from repro.telemetry import Tracer

CHURN = AvailabilitySpec(availability=0.6, churn=0.4, dropout=0.15,
                         speed_spread=0.3)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticImageDataset(num_classes=4, train_per_class=80,
                                 test_per_class=10, seed=3)


def build_session(dataset, *, num_clients=60, backend="serial",
                  availability=CHURN, aggregation="sync", rounds=3,
                  clients_per_round=5, max_resident=8, seed=5,
                  method="fedavg", novel_clients=(), **config_overrides):
    config = FederatedConfig(
        num_clients=num_clients, clients_per_round=clients_per_round,
        rounds=rounds, local_epochs=1, batch_size=8, backend=backend,
        availability=availability, aggregation=aggregation,
        personalization_epochs=1, seed=seed, **config_overrides)
    factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                   seed=7)
    algorithm = build_method(method, config, dataset.num_classes, factory)
    population = VirtualPopulation(dataset, num_clients=num_clients,
                                   samples_per_client=12, seed=seed,
                                   max_resident=max_resident)
    session = TrainingSession(algorithm, population, config,
                              novel_clients=novel_clients)
    return session, population


def state_snapshot(session):
    return {name: np.asarray(value).copy()
            for name, value in session.global_state.items()}


def records_json(session):
    return json.dumps([record.to_json()
                       for record in session.round_records],
                      sort_keys=True)


def test_churned_run_bitwise_across_backends(dataset):
    results = {}
    for backend in ("serial", "process"):
        session, population = build_session(dataset, backend=backend)
        try:
            session.run()
            results[backend] = (state_snapshot(session),
                                records_json(session))
        finally:
            session.close()
            population.close()
    serial_state, serial_records = results["serial"]
    state, records = results["process"]
    for name in serial_state:
        np.testing.assert_array_equal(serial_state[name], state[name],
                                      err_msg=f"{name} differs serial vs process")
    assert records == serial_records, "round records differ serial vs process"
    # Churn actually engaged: some round lost a sampled client to dropout.
    parsed = json.loads(serial_records)
    assert any(record["metrics"].get("dropouts") for record in parsed)


def test_churned_store_keeping_run_with_novel_clients_across_backends(
        dataset):
    """Training and personalization of a method that keeps client stores,
    over a churned population plus novel clients: pool workers realize
    population clients from the recipe they installed and look novel ones
    up in the session's client table, never falling back to serial."""
    results = {}
    for backend in ("serial", "process"):
        novel = build_novel_clients(dataset, 3, partition_iid)
        session, population = build_session(
            dataset, backend=backend, method="calibre-simclr",
            novel_clients=novel, num_clients=24, max_resident=6)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = session.execute()
            assert population.stores()  # the method kept client stores
        finally:
            population.close()
        assert sorted(result.novel_accuracies) == \
            [client.client_id for client in novel]
        results[backend] = json.dumps(result.to_json())
    assert results["process"] == results["serial"]


def test_only_sampled_clients_realized(dataset):
    tracer = Tracer()
    with tracer.activate():
        session, population = build_session(
            dataset, max_resident=32,
            availability=AvailabilitySpec(availability=0.6, churn=0.4))
        session.run()
    sampled = {pid for record in session.round_records
               for pid in record.participant_ids}
    # Every realization was for a sampled participant — never the whole
    # population — and the LRU kept residency at the budget.
    assert population.realized_total == len(sampled)
    assert population.realized_total < len(population)
    assert population.resident_count <= 32
    assert tracer.counters["population.realized"] == len(sampled)
    population.close()


def test_population_counters_and_staleness(dataset):
    tracer = Tracer()
    with tracer.activate():
        session, population = build_session(
            dataset, aggregation="staleness",
            availability=AvailabilitySpec(availability=0.8, churn=0.3,
                                          dropout=0.4, speed_spread=0.5))
        session.run()
    assert tracer.counters.get("round.dropouts", 0) >= 1
    assert "aggregate.staleness" in tracer.counters
    assert tracer.counters["population.realized"] >= 1
    population.close()


def test_resume_bitwise_under_churn(dataset, tmp_path):
    checkpoint = tmp_path / "mid.ckpt.json"

    reference, ref_population = build_session(dataset)
    reference.run()
    expected_state = state_snapshot(reference)
    expected_records = records_json(reference)
    ref_population.close()

    first, first_population = build_session(dataset)
    first.run_until(1)
    first.save_checkpoint(checkpoint)
    first_population.close()

    # The availability model's cursor (the last round whose membership
    # was drawn) rides in the checkpoint: resuming replays the chain
    # from round 0 and lands on the same draws.
    assert read_checkpoint(checkpoint).availability_state == \
        {"round_cursor": 0}

    resumed, resumed_population = build_session(dataset)
    resumed.load_checkpoint(checkpoint)
    resumed.run()
    for name in expected_state:
        np.testing.assert_array_equal(expected_state[name],
                                      resumed.global_state[name])
    assert records_json(resumed) == expected_records
    resumed_population.close()


def test_restore_checks_store_ids_without_enumerating_the_population(
        dataset):
    import tracemalloc

    size = 1_000_000
    config = FederatedConfig(num_clients=size, clients_per_round=2,
                             rounds=1, seed=5)
    factory = make_encoder_factory("mlp", dataset, hidden_dims=(4,), seed=7)
    algorithm = build_method("fedavg", config, dataset.num_classes, factory)
    with VirtualPopulation(dataset, num_clients=size, samples_per_client=12,
                           seed=5) as population:
        session = TrainingSession(algorithm, population, config)
        state = session.capture_state()
        state.client_stores = {size - 1: {"w": np.zeros(2)}}
        tracemalloc.start()
        try:
            session.restore_state(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A set of a million ids alone takes tens of MiB.
        assert peak < 1 << 20
        assert population.client_store(size - 1)["w"].shape == (2,)
        state.client_stores = {size: {"w": np.zeros(2)}}
        with pytest.raises(ValueError,
                           match=r"unknown client ids \[1000000\]"):
            session.restore_state(state)


def test_default_config_omits_population_knobs():
    plain = config_to_jsonable(FederatedConfig(num_clients=8, rounds=2))
    for name in DEFAULT_OMITTED_FIELDS:
        assert name not in plain, \
            f"default-valued {name} must not enter fingerprints"
    churned = config_to_jsonable(FederatedConfig(
        num_clients=8, rounds=2, availability=CHURN,
        aggregation="buffered", aggregation_buffer=4))
    assert churned["aggregation"] == "buffered"
    assert churned["aggregation_buffer"] == 4
    assert churned["availability"]["dropout"] == CHURN.dropout
    assert json.dumps(plain, sort_keys=True) != \
        json.dumps(churned, sort_keys=True)


def test_execute_personalizes_whole_population_bounded(dataset):
    session, population = build_session(
        dataset, num_clients=20, rounds=1, clients_per_round=4,
        max_resident=6)
    result = session.execute()
    # The personalization stage is population-wide (every client gets a
    # personalized accuracy) but realizes in max_resident-sized chunks.
    assert sorted(result.accuracies) == list(range(20))
    assert population.resident_count <= 6
    population.close()
