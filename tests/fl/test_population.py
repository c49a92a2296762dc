"""Unit tests for the virtual-population plane (repro.fl.population):
descriptors, lazy realization, the LRU residency budget, the
availability model, the buffered/staleness aggregation policies, and
the recipe a process pool installs."""

import pickle

import numpy as np
import pytest

from repro.data import make_cifar10_like
from repro.eval import build_method, make_encoder_factory
from repro.fl import (
    AvailabilitySpec,
    ClientDescriptor,
    ClientUpdate,
    FederatedAlgorithm,
    FederatedConfig,
    RandomSampler,
    RoundRobinSampler,
    TrainingSession,
    VirtualPopulation,
)
from repro.fl.population import (
    AvailabilityModel,
    buffered_aggregate,
    simulated_completion_order,
)


def _installed_populations(_):
    """(realized clients, stores) of every population this process's pool
    initializer installed (module-level: picklable)."""
    from repro.fl.execution import _INSTALLED

    return [(population.resident_count, len(population.stores()))
            for population in _INSTALLED.values()
            if isinstance(population, VirtualPopulation)]


@pytest.fixture(scope="module")
def dataset():
    return make_cifar10_like(image_size=8, train_per_class=12,
                             test_per_class=2, seed=0)


def make_population(dataset, **overrides):
    kwargs = dict(num_clients=20, samples_per_client=12, seed=5,
                  max_resident=4)
    kwargs.update(overrides)
    return VirtualPopulation(dataset, **kwargs)


# ----------------------------------------------------------------------
# VirtualPopulation
# ----------------------------------------------------------------------
class TestVirtualPopulation:
    def test_validates_parameters(self, dataset):
        with pytest.raises(ValueError, match="samples_per_client"):
            make_population(dataset, samples_per_client=2)
        with pytest.raises(ValueError, match="test_fraction"):
            make_population(dataset, test_fraction=1.0)
        with pytest.raises(ValueError, match="max_resident"):
            make_population(dataset, max_resident=0)
        with pytest.raises(ValueError, match="at least one"):
            make_population(dataset, num_clients=0)

    def test_ids_are_a_range_and_bounds_checked(self, dataset):
        population = make_population(dataset)
        assert len(population) == 20
        assert population.client_ids == range(20)
        with pytest.raises(KeyError, match="outside population"):
            population.realize(20)
        with pytest.raises(KeyError, match="outside population"):
            population.descriptor(-1)

    def test_million_clients_cost_descriptors_only(self, dataset):
        # A population stores no per-client state: constructing a huge
        # one is O(1) and unrealized clients pickle tiny.
        population = VirtualPopulation(dataset, num_clients=1_000_000,
                                       samples_per_client=8, seed=5)
        descriptor = population.descriptor(734_211)
        assert isinstance(descriptor, ClientDescriptor)
        assert population.payload_nbytes(734_211) < 512
        assert population.resident_count == 0

    def test_realization_is_pure_across_eviction(self, dataset):
        population = make_population(dataset, max_resident=2)
        first = population.realize(3)
        images = first.train.images.copy()
        labels = first.train.labels.copy()
        for client_id in (4, 5, 6):  # push client 3 out of the LRU
            population.realize(client_id)
        assert not population.is_resident(3)
        again = population.realize(3)
        np.testing.assert_array_equal(again.train.images, images)
        np.testing.assert_array_equal(again.train.labels, labels)

    def test_lru_budget_with_round_pinning(self, dataset):
        population = make_population(dataset, max_resident=2)
        clients = population.realize_round([0, 1, 2, 3])
        assert len(clients) == 4
        # Pinned participants overshoot the budget for the round...
        assert population.resident_count == 4
        population.end_round()
        # ...and end_round trims back down.
        assert population.resident_count == 2
        assert population.realized_total == 4
        assert population.evicted_total == 2

    def test_store_survives_eviction(self, dataset):
        population = make_population(dataset, max_resident=1)
        client = population.realize(7)
        client.store["proto"] = np.arange(3.0)
        population.realize(8)  # evicts 7
        assert not population.is_resident(7)
        np.testing.assert_array_equal(
            population.client_store(7)["proto"], np.arange(3.0))
        np.testing.assert_array_equal(
            population.realize(7).store["proto"], np.arange(3.0))

    def test_payload_nbytes_descriptor_vs_realized(self, dataset):
        population = make_population(dataset)
        unrealized = population.payload_nbytes(0)
        assert unrealized == len(pickle.dumps(
            population.descriptor(0), protocol=pickle.HIGHEST_PROTOCOL))
        population.realize(0)
        assert population.payload_nbytes(0) > 10 * unrealized

    def test_context_payload_is_o1_in_derived_mode(self, dataset):
        # The population's shape in six scalars; checkpoint contexts of
        # existing runs hash exactly these keys.
        assert make_population(dataset).context_payload() == {
            "population": 20, "seed": 5, "test_fraction": 0.25,
            "samples_per_client": 12, "classes_per_client": None,
            "unlabeled_per_client": 0,
        }

    def test_close_is_idempotent_and_context_manager(self, dataset):
        with make_population(dataset) as population:
            population.realize(0)
        assert population.resident_count == 0
        population.close()  # idempotent


# ----------------------------------------------------------------------
# Samplers: the id-based surface
# ----------------------------------------------------------------------
class TestSamplerIdSurface:
    def test_random_sampler_count_clamping(self):
        sampler = RandomSampler(5, seed=0)
        assert sampler.sample_ids(range(10), 0, count=0) == []
        with pytest.raises(ValueError, match="cannot sample"):
            sampler.sample_ids(range(3), 0)
        clamped = sampler.sample_ids(range(3), 0, count=3)
        assert sorted(clamped) == clamped and len(clamped) == 3

    def test_round_robin_stride_is_availability_independent(self):
        sampler = RoundRobinSampler(4)
        # Shrinking the per-round count must not change the rotation
        # start: round r always begins at (r * self.count) % n.
        full = sampler.sample_ids(range(10), 2)
        clamped = sampler.sample_ids(range(10), 2, count=2)
        assert clamped == full[:2]


# ----------------------------------------------------------------------
# AvailabilityModel
# ----------------------------------------------------------------------
class TestAvailabilityModel:
    def test_stationary_online_fraction(self):
        spec = AvailabilitySpec(availability=0.5, churn=0.3)
        model = AvailabilityModel(spec, num_clients=4000, seed=1)
        for round_index in (0, 5):
            online = model.available_positions(round_index)
            assert abs(len(online) / 4000 - 0.5) < 0.05

    def test_zero_churn_freezes_membership(self):
        spec = AvailabilitySpec(availability=0.5, churn=0.0)
        model = AvailabilityModel(spec, num_clients=200, seed=1)
        first = model.available_positions(0)
        np.testing.assert_array_equal(first, model.available_positions(7))

    def test_rewind_replays_identically(self):
        spec = AvailabilitySpec(availability=0.6, churn=0.4)
        forward = AvailabilityModel(spec, num_clients=100, seed=2)
        expected = forward.available_positions(3).copy()
        rewound = AvailabilityModel(spec, num_clients=100, seed=2)
        rewound.available_positions(9)
        np.testing.assert_array_equal(rewound.available_positions(3),
                                      expected)

    def test_state_dict_round_trip(self):
        spec = AvailabilitySpec(availability=0.6, churn=0.4)
        model = AvailabilityModel(spec, num_clients=100, seed=2)
        model.available_positions(4)
        state = model.state_dict()
        assert state == {"round_cursor": 4}
        restored = AvailabilityModel(spec, num_clients=100, seed=2)
        restored.load_state_dict(state)
        np.testing.assert_array_equal(restored.available_positions(5),
                                      model.available_positions(5))

    def test_dropout_is_pure_and_gated(self):
        quiet = AvailabilityModel(AvailabilitySpec(availability=0.5),
                                  num_clients=10, seed=3)
        assert not any(quiet.drops_out(cid, 0) for cid in range(10))
        noisy = AvailabilityModel(
            AvailabilitySpec(availability=0.5, dropout=0.5),
            num_clients=10, seed=3)
        draws = [noisy.drops_out(cid, 1) for cid in range(10)]
        assert draws == [noisy.drops_out(cid, 1) for cid in range(10)]
        assert any(draws)

    def test_speed_multipliers(self):
        flat = AvailabilityModel(AvailabilitySpec(availability=0.5),
                                 num_clients=4, seed=3)
        assert flat.speed_multipliers(range(4)) == [1.0] * 4
        spread = AvailabilityModel(
            AvailabilitySpec(availability=0.5, speed_spread=0.5),
            num_clients=4, seed=3)
        speeds = spread.speed_multipliers(range(4))
        assert all(s > 0.0 for s in speeds)
        assert len(set(speeds)) > 1
        assert speeds == spread.speed_multipliers(range(4))


# ----------------------------------------------------------------------
# Buffered/staleness aggregation semantics
# ----------------------------------------------------------------------
class RecordingAlgorithm(FederatedAlgorithm):
    """Captures the weights each aggregate() call receives."""

    name = "recording"

    def __init__(self):
        super().__init__(FederatedConfig(), num_classes=2)
        self.seen_weights = []

    def aggregate(self, updates, global_state, round_index):
        self.seen_weights.append([u.weight for u in updates])
        return super().aggregate(updates, global_state, round_index)


def make_update(position, value, weight=1.0):
    return ClientUpdate(client_id=position, state={"w": np.full(2, value)},
                        weight=weight)


class TestBufferedAccumulator:
    """``buffered_aggregate``: FedBuff flushes over simulated completion."""

    def test_completion_order_breaks_ties_by_position(self):
        assert simulated_completion_order([2.0, 1.0, 1.0]) == [1, 2, 0]
        assert simulated_completion_order([1.0, 1.0]) == [0, 1]

    def test_full_buffer_single_flush_equals_sync(self):
        algorithm = RecordingAlgorithm()
        zero = {"w": np.zeros(2)}
        updates = [make_update(position, float(position), weight=position + 1)
                   for position in range(3)]
        state, staleness = buffered_aggregate(
            algorithm, updates, zero, 0, durations=[1.0, 1.0, 1.0],
            buffer_size=8, staleness_decay=0.5)
        np.testing.assert_array_equal(
            state["w"], algorithm.aggregate(updates, zero, 0)["w"])
        assert staleness == [0, 0, 0]

    def test_staleness_assignment_and_weight_decay(self):
        algorithm = RecordingAlgorithm()
        updates = [make_update(position, 1.0, weight=4.0) for position in range(3)]
        _, staleness = buffered_aggregate(
            algorithm, updates, {"w": np.zeros(2)}, 0,
            durations=[3.0, 1.0, 2.0], buffer_size=1, staleness_decay=1.0)
        # Arrival order by duration: position 1, then 2, then 0.
        assert staleness == [2, 0, 1]
        # Each flush scales its updates' weights by (1 + f) ** -decay.
        assert algorithm.seen_weights == [[4.0], [2.0], [4.0 / 3.0]]

    def test_sequential_mixing_math(self):
        state, _ = buffered_aggregate(
            RecordingAlgorithm(), [make_update(0, 6.0), make_update(1, 3.0)],
            {"w": np.zeros(2)}, 0, durations=[1.0, 2.0], buffer_size=1,
            staleness_decay=0.0)
        # Flush 1: state = 0.5*0 + 0.5*6 = 3; flush 2: 0.5*3 + 0.5*3 = 3.
        np.testing.assert_allclose(state["w"], np.full(2, 3.0))

    def test_empty_round_returns_global_state(self):
        state = {"w": np.arange(2.0)}
        result, staleness = buffered_aggregate(
            RecordingAlgorithm(), [], state, 0, durations=[], buffer_size=2,
            staleness_decay=0.5)
        assert result is state
        assert staleness == []

    def test_validates_parameters(self):
        update = [make_update(0, 1.0)]
        with pytest.raises(ValueError, match="buffer_size"):
            buffered_aggregate(RecordingAlgorithm(), update, {}, 0,
                               durations=[1.0], buffer_size=0,
                               staleness_decay=0.5)
        with pytest.raises(ValueError, match="staleness_decay"):
            buffered_aggregate(RecordingAlgorithm(), update, {}, 0,
                               durations=[1.0], buffer_size=1,
                               staleness_decay=-0.1)
        with pytest.raises(ValueError, match="2 durations for 1 updates"):
            buffered_aggregate(RecordingAlgorithm(), update, {}, 0,
                               durations=[1.0, 2.0], buffer_size=1,
                               staleness_decay=0.5)


# ----------------------------------------------------------------------
# A process pool's population
# ----------------------------------------------------------------------
class TestPopulationInPoolWorker:
    def test_pickles_as_its_recipe(self, dataset):
        population = make_population(dataset)
        population.set_stores({3: {"w": np.arange(2.0)}, 9: {"w": 1.0}})
        population.realize(3)
        population.realize(4)
        replica = pickle.loads(pickle.dumps(
            population, protocol=pickle.HIGHEST_PROTOCOL))
        assert replica.resident_count == 0
        assert replica.stores() == {}
        assert replica.realized_total == 0
        client = replica.attach(3, {"w": 1})
        np.testing.assert_array_equal(client.train.images,
                                      population.realize(3).train.images)
        assert client.store == {"w": 1}
        assert replica.resident_count == 0  # attach caches nothing
        population.close()

    def test_worker_holds_no_clients_or_stores_after_a_run(self, dataset):
        config = FederatedConfig(
            num_clients=20, clients_per_round=4, rounds=3, local_epochs=1,
            batch_size=8, personalization_epochs=1, backend="process",
            workers=1)
        factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                       seed=7)
        algorithm = build_method("pfl-simsiam", config, dataset.num_classes,
                                 factory)
        population = make_population(dataset)
        session = TrainingSession(algorithm, population, config)
        try:
            session.run()
            session.personalize()
            assert population.realized_total >= len(population)
            assert population.stores()  # the coordinator keeps them
            installed = session.backend.map(_installed_populations, [0])[0]
        finally:
            session.close()
            population.close()
        assert installed == [(0, 0)]
