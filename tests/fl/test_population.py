"""Unit tests for the virtual-population plane (repro.fl.population):
descriptors, lazy realization, the LRU residency budget, the
availability model, and the buffered/staleness aggregation policies."""

import pickle

import numpy as np
import pytest

from repro.data import (
    DataSplitHandle,
    make_cifar10_like,
    partition_iid,
    shared_memory_available,
)
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
    UpdateAccumulator,
    VirtualPopulation,
    build_federation,
)
from repro.fl.population import (
    AvailabilityModel,
    BufferedAccumulator,
    simulated_completion_order,
)


def _worker_attachment_count(_):
    """Segments this process keeps attached (module-level: picklable)."""
    from repro.data import shm

    return len(shm._ATTACHED)


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
    def test_requires_exactly_one_construction_mode(self, dataset):
        with pytest.raises(ValueError, match="exactly one"):
            VirtualPopulation(dataset)
        with pytest.raises(ValueError, match="exactly one"):
            VirtualPopulation(dataset, num_clients=3,
                              partitions=[np.arange(4)])

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
        # Derived mode stores no per-client state: constructing a huge
        # population is O(1) and unrealized clients pickle tiny.
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
        payload = make_population(dataset).context_payload()
        assert payload["population"] == 20
        assert "partitions_sha256" not in payload

    def test_explicit_partitions_fingerprint_and_realize(self, dataset):
        parts = partition_iid(dataset.train.labels, 4,
                              np.random.default_rng(0))
        population = VirtualPopulation(dataset, partitions=parts, seed=5)
        payload = population.context_payload()
        assert len(payload["partitions_sha256"]) == 16
        other = VirtualPopulation(dataset, partitions=parts[::-1], seed=5)
        assert payload["partitions_sha256"] != \
            other.context_payload()["partitions_sha256"]
        client = population.realize(1)
        assert len(client.train) + len(client.test) == len(parts[1])

    def test_close_is_idempotent_and_context_manager(self, dataset):
        with make_population(dataset) as population:
            population.realize(0)
        assert population.resident_count == 0
        population.close()  # idempotent


# ----------------------------------------------------------------------
# Samplers: the id-based surface
# ----------------------------------------------------------------------
class TestSamplerIdSurface:
    def test_sample_ids_matches_sample(self, dataset):
        clients = build_federation(
            dataset, partition_iid(dataset.train.labels, 8,
                                   np.random.default_rng(0)), seed=2)
        for sampler in (RandomSampler(3, seed=5), RoundRobinSampler(3)):
            for round_index in range(4):
                by_obj = [c.client_id for c in
                          sampler.sample(clients, round_index)]
                by_id = sampler.sample_ids(
                    [c.client_id for c in clients], round_index)
                assert by_obj == by_id

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
    def test_completion_order_breaks_ties_by_position(self):
        assert simulated_completion_order([2.0, 1.0, 1.0]) == [1, 2, 0]
        assert simulated_completion_order([1.0, 1.0]) == [0, 1]

    def test_full_buffer_single_flush_equals_sync(self):
        algorithm = RecordingAlgorithm()
        zero = {"w": np.zeros(2)}
        sync = UpdateAccumulator(algorithm, zero, round_index=0)
        buffered = BufferedAccumulator(algorithm, zero, round_index=0,
                                       buffer_size=8, staleness_decay=0.5)
        for position in range(3):
            update = make_update(position, float(position), weight=position + 1)
            sync.add(position, update)
            buffered.add(position, update)
        np.testing.assert_array_equal(buffered.finalize()["w"],
                                      sync.finalize()["w"])
        assert buffered.total_staleness() == 0

    def test_staleness_assignment_and_weight_decay(self):
        algorithm = RecordingAlgorithm()
        accumulator = BufferedAccumulator(
            algorithm, {"w": np.zeros(2)}, round_index=0,
            buffer_size=1, staleness_decay=1.0,
            durations={0: 3.0, 1: 1.0, 2: 2.0})
        for position in range(3):
            accumulator.add(position, make_update(position, 1.0, weight=4.0))
        accumulator.finalize()
        # Arrival order by duration: position 1, then 2, then 0.
        assert accumulator.staleness_by_position == {1: 0, 2: 1, 0: 2}
        assert accumulator.total_staleness() == 3
        # Each flush scales its updates' weights by (1 + f) ** -decay.
        assert algorithm.seen_weights == [[4.0], [2.0], [4.0 / 3.0]]

    def test_sequential_mixing_math(self):
        algorithm = RecordingAlgorithm()
        accumulator = BufferedAccumulator(
            algorithm, {"w": np.zeros(2)}, round_index=0,
            buffer_size=1, staleness_decay=0.0,
            durations={0: 1.0, 1: 2.0})
        accumulator.add(0, make_update(0, 6.0))
        accumulator.add(1, make_update(1, 3.0))
        final = accumulator.finalize()["w"]
        # Flush 1: state = 0.5*0 + 0.5*6 = 3; flush 2: 0.5*3 + 0.5*3 = 3.
        np.testing.assert_allclose(final, np.full(2, 3.0))

    def test_empty_round_returns_global_state(self):
        state = {"w": np.arange(2.0)}
        accumulator = BufferedAccumulator(
            RecordingAlgorithm(), state, round_index=0,
            buffer_size=2, staleness_decay=0.5)
        assert accumulator.finalize() is state

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="buffer_size"):
            BufferedAccumulator(RecordingAlgorithm(), {}, 0,
                                buffer_size=0, staleness_decay=0.5)
        with pytest.raises(ValueError, match="staleness_decay"):
            BufferedAccumulator(RecordingAlgorithm(), {}, 0,
                                buffer_size=1, staleness_decay=-0.1)


# ----------------------------------------------------------------------
# Shared-memory composition
# ----------------------------------------------------------------------
@pytest.mark.skipif(not shared_memory_available(),
                    reason="no shared memory in this environment")
class TestPopulationSharedMemory:
    def test_segments_bounded_and_released_on_eviction(self, dataset):
        population = make_population(dataset, max_resident=2)
        assert population.enable_shared_memory()
        for client_id in range(5):
            population.realize(client_id)
        assert population.shared_segment_count <= 2
        names = [segment.name
                 for segment in population._segments.values()]
        population.close()
        assert population.shared_segment_count == 0
        from multiprocessing import shared_memory
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_worker_side_views_are_read_only(self, dataset):
        population = make_population(dataset)
        assert population.enable_shared_memory()
        client = population.realize(0)
        assert isinstance(client.train, DataSplitHandle)
        replica = pickle.loads(pickle.dumps(
            client, protocol=pickle.HIGHEST_PROTOCOL))
        assert not replica.train.images.flags.writeable
        np.testing.assert_array_equal(replica.train.images,
                                      client.train.images)
        population.close()

    def test_pool_worker_releases_evicted_segments(self, dataset):
        # Each realized client gets its own segment, unlinked at eviction.
        # A long-lived pool worker must let those go too: an unlinked
        # segment stays allocated for as long as any process maps it.
        config = FederatedConfig(
            num_clients=20, clients_per_round=4, rounds=3, local_epochs=1,
            batch_size=8, personalization_epochs=1, backend="process",
            workers=1)
        factory = make_encoder_factory("mlp", dataset, hidden_dims=(16, 8),
                                       seed=7)
        algorithm = build_method("fedavg", config, dataset.num_classes,
                                 factory)
        population = make_population(dataset)
        session = TrainingSession(algorithm, population, config)
        try:
            assert session.shared_memory_active
            session.run()
            session.personalize()
            assert population.realized_total >= len(population)
            attached = session.backend.map(_worker_attachment_count, [0])[0]
        finally:
            session.close()
            population.close()
        assert attached <= population.max_resident
