"""Tests for the FL framework: config, clients, sampler, history, personalization."""

import numpy as np
import pytest

from repro.data import make_cifar10_like, make_stl10_like, partition_dirichlet
from repro.fl import (
    FederatedConfig,
    PAPER_CONFIG,
    RandomSampler,
    RoundRobinSampler,
    RunResult,
    build_federation,
    build_novel_clients,
    derive_rng,
    evaluate_linear_head,
    train_linear_probe,
)


def small_dataset(seed=0, unlabeled=0):
    factory = make_stl10_like if unlabeled else make_cifar10_like
    kwargs = dict(image_size=8, train_per_class=20, test_per_class=4, seed=seed)
    if unlabeled:
        kwargs["unlabeled_size"] = unlabeled
    return factory(**kwargs)


def small_federation(num_clients=4, seed=0, unlabeled=0):
    dataset = small_dataset(seed=seed, unlabeled=unlabeled)
    parts = partition_dirichlet(dataset.train.labels, num_clients, 0.5,
                                samples_per_client=30,
                                rng=np.random.default_rng(seed))
    return dataset, build_federation(dataset, parts, seed=seed)


class TestConfig:
    def test_paper_config_matches_section_va(self):
        assert PAPER_CONFIG.num_clients == 100
        assert PAPER_CONFIG.clients_per_round == 10
        assert PAPER_CONFIG.rounds == 200
        assert PAPER_CONFIG.local_epochs == 3
        assert PAPER_CONFIG.personalization_epochs == 10
        assert PAPER_CONFIG.personalization_lr == 0.05
        assert PAPER_CONFIG.num_novel_clients == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(num_clients=0)
        with pytest.raises(ValueError):
            FederatedConfig(num_clients=4, clients_per_round=5)
        with pytest.raises(ValueError):
            FederatedConfig(local_epochs=0)
        with pytest.raises(ValueError):
            FederatedConfig(test_fraction=1.5)
        with pytest.raises(ValueError):
            FederatedConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            FederatedConfig(seed=-1)

    @pytest.mark.parametrize("epochs", [-1, 2.5, True, "10", None])
    def test_personalization_epochs_must_be_a_count(self, epochs):
        with pytest.raises(ValueError, match="personalization_epochs must be "
                                             f"an integer >= 0, got {epochs!r}"):
            FederatedConfig(personalization_epochs=epochs)

    def test_zero_personalization_epochs_stay_valid(self):
        assert FederatedConfig(personalization_epochs=0).personalization_epochs == 0

    @pytest.mark.parametrize("buffer", [0, 2.5, True])
    def test_aggregation_buffer_must_be_a_positive_count(self, buffer):
        with pytest.raises(ValueError, match="aggregation_buffer must be "
                                             f"an integer >= 1, got {buffer!r}"):
            FederatedConfig(aggregation_buffer=buffer)

    def test_with_overrides(self):
        config = FederatedConfig(rounds=5).with_overrides(rounds=7)
        assert config.rounds == 7


class TestFederationBuilding:
    def test_clients_have_disjoint_train_test(self):
        dataset, clients = small_federation()
        for client in clients:
            assert len(client.train) > 0
            assert len(client.test) > 0

    def test_client_count(self):
        _, clients = small_federation(num_clients=5)
        assert len(clients) == 5
        assert [c.client_id for c in clients] == list(range(5))

    def test_unlabeled_shards_distributed(self):
        dataset, clients = small_federation(unlabeled=40)
        total_unlabeled = sum(len(c.unlabeled) for c in clients)
        assert total_unlabeled == 40

    def test_ssl_pool_includes_unlabeled(self):
        _, clients = small_federation(unlabeled=40)
        client = clients[0]
        pool = client.ssl_pool()
        assert len(pool) == len(client.train) + len(client.unlabeled)

    def test_ssl_pool_without_unlabeled_is_train(self):
        _, clients = small_federation()
        pool = clients[0].ssl_pool()
        assert len(pool) == len(clients[0].train)

    def test_novel_clients_flagged_and_offset(self):
        dataset = small_dataset()

        def partition_fn(labels, n, rng):
            return partition_dirichlet(labels, n, 0.5, samples_per_client=20, rng=rng)

        novel = build_novel_clients(dataset, 3, partition_fn)
        assert len(novel) == 3
        assert all(c.is_novel for c in novel)
        assert all(c.client_id >= 10_000 for c in novel)

    def test_zero_novel_clients(self):
        dataset = small_dataset()
        assert build_novel_clients(dataset, 0, None) == []

    def test_derive_rng_deterministic_and_distinct(self):
        a = derive_rng(0, 1, 2).standard_normal(4)
        b = derive_rng(0, 1, 2).standard_normal(4)
        c = derive_rng(0, 1, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)


class TestSamplers:
    # Client ids need not be positions: samplers draw from the id list.
    IDS = [3, 8, 14, 21, 30, 42]

    def test_random_sampler_size_and_distinct(self):
        chosen = RandomSampler(3, seed=0).sample_ids(self.IDS, 0)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3
        assert set(chosen) <= set(self.IDS)

    def test_random_sampler_deterministic(self):
        ids_a = RandomSampler(3, seed=5).sample_ids(self.IDS, 0)
        ids_b = RandomSampler(3, seed=5).sample_ids(self.IDS, 0)
        assert ids_a == ids_b

    def test_random_sampler_pure_in_round_index(self):
        # The determinism contract (repro.fl.execution): the participant
        # set is a function of (seed, round_index), never of call order.
        forward = RandomSampler(3, seed=7)
        shuffled = RandomSampler(3, seed=7)
        by_round = {r: forward.sample_ids(self.IDS, r) for r in range(4)}
        for round_index in (2, 0, 3, 1, 2):  # out of order, with a repeat
            assert shuffled.sample_ids(self.IDS, round_index) == by_round[round_index]

    def test_random_sampler_varies_across_rounds(self):
        sampler = RandomSampler(3, seed=0)
        draws = {tuple(sampler.sample_ids(self.IDS, r)) for r in range(8)}
        assert len(draws) > 1

    def test_random_sampler_validates(self):
        with pytest.raises(ValueError):
            RandomSampler(0)
        with pytest.raises(ValueError):
            RandomSampler(9).sample_ids(self.IDS[:3], 0)

    def test_round_robin_covers_all(self):
        sampler = RoundRobinSampler(2)
        seen = set()
        for round_index in range(3):
            seen.update(sampler.sample_ids(self.IDS, round_index))
        assert seen == set(self.IDS)


class TestRunResult:
    def test_summary_metrics(self):
        result = RunResult(algorithm="x", accuracies={0: 0.5, 1: 0.9})
        assert result.mean_accuracy == pytest.approx(0.7)
        assert result.accuracy_variance == pytest.approx(0.04)
        assert result.accuracy_std == pytest.approx(0.2)

    def test_novel_metrics(self):
        result = RunResult(algorithm="x", accuracies={0: 0.5},
                           novel_accuracies={10: 0.25, 11: 0.75})
        assert result.novel_mean_accuracy() == pytest.approx(0.5)
        assert "novel_mean_accuracy" in result.summary()

    def test_empty(self):
        result = RunResult(algorithm="x", accuracies={})
        assert result.mean_accuracy == 0.0


class TestLinearProbe:
    def make_features(self, n_per=30, d=8, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((3, d)) * 4.0
        features = np.concatenate([centers[k] + rng.standard_normal((n_per, d))
                                   for k in range(3)])
        labels = np.repeat(np.arange(3), n_per)
        perm = rng.permutation(labels.shape[0])
        return features[perm], labels[perm]

    def test_probe_learns_separable_features(self):
        features, labels = self.make_features()
        result = train_linear_probe(features, labels, features, labels, 3,
                                    epochs=10, rng=np.random.default_rng(0))
        assert result.accuracy > 0.9
        assert result.train_accuracy > 0.9
        assert len(result.losses) == 10
        assert result.losses[-1] < result.losses[0]

    def test_probe_validates_input(self):
        with pytest.raises(ValueError):
            train_linear_probe(np.zeros((0, 4)), np.zeros(0), np.zeros((2, 4)),
                               np.zeros(2), 3)
        with pytest.raises(ValueError):
            train_linear_probe(np.zeros((3, 4)), np.zeros(2), np.zeros((2, 4)),
                               np.zeros(2), 3)

    def test_probe_continues_from_existing_head(self):
        features, labels = self.make_features(seed=1)
        first = train_linear_probe(features, labels, features, labels, 3,
                                   epochs=5, rng=np.random.default_rng(1))
        second = train_linear_probe(features, labels, features, labels, 3,
                                    epochs=5, rng=np.random.default_rng(2),
                                    head=first.head)
        assert second.accuracy >= first.accuracy - 0.05

    def test_evaluate_empty_features(self):
        features, labels = self.make_features(seed=2)
        result = train_linear_probe(features, labels, features, labels, 3,
                                    epochs=1, rng=np.random.default_rng(0))
        assert evaluate_linear_head(result.head, np.zeros((0, 8)), np.zeros(0)) == 0.0
