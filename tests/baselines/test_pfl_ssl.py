"""Tests for the pFL-SSL base algorithm: state persistence and wire format."""

import numpy as np
import pytest

from repro.baselines import PFLSSL, FedEMA
from repro.data import make_cifar10_like, make_stl10_like, partition_dirichlet
from repro.fl import FederatedConfig, build_federation
from repro.nn import MLPEncoder

IMAGE_SIZE = 8
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(24, 12), rng=np.random.default_rng(42))


def make_setup(seed=0, unlabeled=0):
    config = FederatedConfig(num_clients=3, clients_per_round=2, rounds=1,
                             local_epochs=1, batch_size=16,
                             personalization_epochs=2, seed=seed)
    factory = make_stl10_like if unlabeled else make_cifar10_like
    kwargs = dict(image_size=IMAGE_SIZE, train_per_class=20, test_per_class=4,
                  seed=seed)
    if unlabeled:
        kwargs["unlabeled_size"] = unlabeled
    dataset = factory(**kwargs)
    parts = partition_dirichlet(dataset.train.labels, 3, 0.5, samples_per_client=30,
                                rng=np.random.default_rng(seed))
    return config, dataset, build_federation(dataset, parts, seed=seed)


class TestWireFormat:
    def test_global_state_is_encoder_plus_projector(self):
        config, _, _ = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simclr")
        state = algorithm.build_global_state()
        prefixes = {key.split(".")[0] for key in state}
        assert prefixes == {"encoder", "projector"}

    def test_update_state_matches_global_keys(self):
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simclr")
        global_state = algorithm.build_global_state()
        update = algorithm.local_update(clients[0], global_state, 0)
        assert set(update.state) == set(global_state)

    def test_weight_is_sample_count(self):
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simclr")
        update = algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        assert update.weight == float(clients[0].num_train_samples)


class TestLocalStatePersistence:
    def test_store_written_after_update(self):
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simsiam")
        algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        assert "pfl-simsiam/local" in clients[0].store

    def test_predictor_state_persists_across_rounds(self):
        """SimSiam's predictor is client-local; the state saved at round r
        must be restored at round r+1."""
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simsiam")
        global_state = algorithm.build_global_state()
        algorithm.local_update(clients[0], global_state, 0)
        saved_state, _ = clients[0].store["pfl-simsiam/local"]
        predictor_keys = [k for k in saved_state if k.startswith("predictor.")]
        assert predictor_keys
        method = algorithm._restore_client_method(clients[0], global_state)
        for key in predictor_keys:
            np.testing.assert_array_equal(method.state_dict()[key], saved_state[key])

    def test_moco_queue_persists(self):
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="mocov2",
                           ssl_kwargs={"queue_size": 16})
        global_state = algorithm.build_global_state()
        algorithm.local_update(clients[0], global_state, 0)
        _, extra = clients[0].store["pfl-mocov2/local"]
        assert "queue" in extra
        method = algorithm._restore_client_method(clients[0], global_state)
        np.testing.assert_array_equal(method.queue, extra["queue"])

    def test_persistence_can_be_disabled(self):
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simclr",
                           persist_local_state=False)
        algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        assert "pfl-simclr/local" not in clients[0].store


class TestUnlabeledPool:
    def test_ssl_trains_on_unlabeled_shard(self):
        config, dataset, clients = make_setup(unlabeled=30)
        assert len(clients[0].unlabeled) > 0
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simclr")
        update = algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        assert np.isfinite(update.metrics["loss"])


class TestFedEMAMixing:
    def test_lambda_validation(self):
        config, _, _ = make_setup()
        with pytest.raises(ValueError):
            FedEMA(config, 10, encoder_factory, ema_lambda=-1.0)

    def test_lambda_zero_overwrites_with_global(self):
        """μ = min(0 · div, 1) = 0 ⇒ the client adopts the global model."""
        config, _, clients = make_setup()
        algorithm = FedEMA(config, 10, encoder_factory, ema_lambda=0.0)
        global_state = algorithm.build_global_state()
        algorithm.local_update(clients[0], global_state, 0)
        perturbed = {k: v + 0.5 for k, v in global_state.items()}
        method = algorithm._restore_client_method(clients[0], perturbed)
        loaded = method.global_state()
        for key in perturbed:
            np.testing.assert_allclose(loaded[key], perturbed[key], atol=1e-10)

    def test_large_lambda_keeps_local_model(self):
        """μ saturates at 1 ⇒ the client keeps its local online network."""
        config, _, clients = make_setup()
        algorithm = FedEMA(config, 10, encoder_factory, ema_lambda=1e6)
        global_state = algorithm.build_global_state()
        algorithm.local_update(clients[0], global_state, 0)
        local_state, _ = clients[0].store["fedema/local"]
        perturbed = {k: v + 0.5 for k, v in global_state.items()}
        method = algorithm._restore_client_method(clients[0], perturbed)
        loaded = method.global_state()
        for key in loaded:
            np.testing.assert_allclose(loaded[key], local_state[key], atol=1e-10)


class AlternatingMetric(PFLSSL):
    """Emits ``sparse`` on every other kept batch and ``dense`` on all."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = []

    def local_loss(self, method, outputs, rng):
        step = len(self.emitted)
        metrics = {"dense": float(step)}
        if step % 2 == 0:
            metrics["sparse"] = 10.0 + step
        self.emitted.append(metrics)
        return outputs.loss, metrics


class TestMetricAveraging:
    def test_each_metric_averages_over_the_batches_that_emitted_it(self):
        config, _, clients = make_setup()
        config = config.with_overrides(batch_size=4)
        algorithm = AlternatingMetric(config, 10, encoder_factory,
                                      ssl_name="simclr")
        update = algorithm.local_update(clients[0],
                                        algorithm.build_global_state(), 0)
        steps = len(algorithm.emitted)
        assert steps >= 4
        sparse = [m["sparse"] for m in algorithm.emitted if "sparse" in m]
        assert len(sparse) == (steps + 1) // 2
        assert update.metrics["dense"] == sum(range(steps)) / steps
        assert update.metrics["sparse"] == sum(sparse) / len(sparse)

    def test_metric_never_emitted_is_absent(self):
        config, _, clients = make_setup()
        algorithm = PFLSSL(config, 10, encoder_factory, ssl_name="simclr")
        update = algorithm.local_update(clients[0],
                                        algorithm.build_global_state(), 0)
        assert set(update.metrics) == {"loss"}
