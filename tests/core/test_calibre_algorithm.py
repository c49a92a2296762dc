"""Algorithm-level tests for Calibre: loss assembly, aggregation, edge cases."""

import numpy as np
import pytest

from repro.core import Calibre
from repro.data import DataSplit, make_cifar10_like, partition_dirichlet
from repro.eval import build_method
from repro.fl import ClientData, FederatedConfig, TrainingSession, build_federation
from repro.nn import MLPEncoder

IMAGE_SIZE = 8
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(24, 12), rng=np.random.default_rng(42))


def make_setup(num_clients=4, rounds=2, seed=0, **config_overrides):
    defaults = dict(num_clients=num_clients, clients_per_round=min(2, num_clients),
                    rounds=rounds, local_epochs=1, batch_size=16,
                    personalization_epochs=3, seed=seed)
    defaults.update(config_overrides)
    config = FederatedConfig(**defaults)
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=24,
                                test_per_class=4, seed=seed)
    parts = partition_dirichlet(dataset.train.labels, num_clients, 0.5,
                                samples_per_client=40,
                                rng=np.random.default_rng(seed))
    clients = build_federation(dataset, parts, seed=seed)
    return config, dataset, clients


class TestConstruction:
    def test_name_includes_base_method(self):
        config, _, _ = make_setup()
        algorithm = Calibre(config, 10, encoder_factory, ssl_name="byol")
        assert algorithm.name == "calibre-byol"

    def test_defaults_num_prototypes_to_classes(self):
        config, _, _ = make_setup()
        algorithm = Calibre(config, 10, encoder_factory)
        assert algorithm.num_prototypes == 10

    def test_validation(self):
        config, _, _ = make_setup()
        with pytest.raises(ValueError):
            Calibre(config, 10, encoder_factory, alpha=-1.0)
        with pytest.raises(ValueError):
            Calibre(config, 10, encoder_factory, num_prototypes=1)
        with pytest.raises(KeyError):
            Calibre(config, 10, encoder_factory, ssl_name="nope")

    @pytest.mark.parametrize("overrides, match", [
        (dict(prototype_temperature=0.0), "prototype_temperature"),
        (dict(prototype_temperature=-1.0), "prototype_temperature"),
        (dict(divergence_temperature=-0.5), "divergence_temperature"),
        (dict(divergence_mode="sofmax"), "divergence_mode"),
    ])
    def test_loss_and_aggregation_knobs_validated(self, overrides, match):
        # Through build_method, the path a sweep override takes: a bad value
        # must fail before any local work, not as NaN losses mid-run.
        config, _, _ = make_setup()
        with pytest.raises(ValueError, match=match):
            build_method("calibre-simclr", config, 10, encoder_factory, **overrides)

    def test_divergence_ablation_settings_build(self):
        # The divergence ablation's settings stay valid: both modes, and
        # temperature 0 (FedAvg weighting).
        config, _, _ = make_setup()
        for mode in ("softmax", "inverse"):
            algorithm = build_method("calibre-simclr", config, 10, encoder_factory,
                                     divergence_temperature=0.0, divergence_mode=mode)
            assert algorithm.divergence_mode == mode


class TestLocalLoss:
    def test_metrics_cover_all_enabled_terms(self):
        config, _, clients = make_setup()
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3)
        update = algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        assert {"loss", "l_c", "l_n", "divergence"} <= set(update.metrics)

    def test_total_loss_exceeds_base_when_regularized(self):
        """With all terms on, the reported loss includes l_c + α(l_p + l_n),
        so it must exceed the bare-SSL loss on the same data and seed."""
        config, _, clients = make_setup()
        full = Calibre(config, 10, encoder_factory, num_prototypes=3)
        bare = Calibre(config, 10, encoder_factory, num_prototypes=3,
                       use_ln=False, use_lp=False, use_lc=False)
        update_full = full.local_update(clients[0], full.build_global_state(), 0)
        update_bare = bare.local_update(clients[0], bare.build_global_state(), 0)
        assert update_full.metrics["loss"] > update_bare.metrics["loss"]

    def test_alpha_zero_removes_regularizer_weight(self):
        config, _, clients = make_setup()
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3, alpha=0.0,
                            use_lc=False)
        bare = Calibre(config, 10, encoder_factory, num_prototypes=3,
                       use_ln=False, use_lp=False, use_lc=False)
        update_a = algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        update_b = bare.local_update(clients[0], bare.build_global_state(), 0)
        assert update_a.metrics["loss"] == pytest.approx(update_b.metrics["loss"],
                                                         rel=1e-6)


class TestAggregation:
    def test_divergence_weighting_changes_aggregate(self):
        from repro.fl import ClientUpdate

        config, _, _ = make_setup()
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3,
                            divergence_temperature=5.0)
        updates = [
            ClientUpdate(client_id=0, state={"w": np.array([0.0])}, weight=10.0,
                         metrics={"divergence": 0.1}),
            ClientUpdate(client_id=1, state={"w": np.array([10.0])}, weight=10.0,
                         metrics={"divergence": 3.0}),
        ]
        merged = algorithm.aggregate(updates, {"w": np.array([0.0])}, 0)
        # Client 1 diverges more, so the aggregate must sit below the plain
        # FedAvg value of 5.0.
        assert merged["w"][0] < 5.0

    def test_temperature_zero_recovers_fedavg(self):
        from repro.fl import ClientUpdate

        config, _, _ = make_setup()
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3,
                            divergence_temperature=0.0)
        updates = [
            ClientUpdate(client_id=0, state={"w": np.array([0.0])}, weight=10.0,
                         metrics={"divergence": 0.1}),
            ClientUpdate(client_id=1, state={"w": np.array([10.0])}, weight=10.0,
                         metrics={"divergence": 3.0}),
        ]
        merged = algorithm.aggregate(updates, {"w": np.array([0.0])}, 0)
        assert merged["w"][0] == pytest.approx(5.0)

    def test_empty_round(self):
        config, _, _ = make_setup()
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3)
        state = {"w": np.array([1.0])}
        assert algorithm.aggregate([], state, 0) is state


class TestEdgeCases:
    def test_single_sample_batches_skipped(self):
        """Batches of one sample cannot form a positive pair; training must
        proceed on the remaining batches rather than crash."""
        config, dataset, clients = make_setup(batch_size=16)
        client = clients[0]
        # Shrink the client's pool so the final batch has a single sample.
        odd = DataSplit(client.train.images[:17], client.train.labels[:17])
        lone_client = ClientData(client_id=77, train=odd, test=client.test)
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3)
        update = algorithm.local_update(lone_client, algorithm.build_global_state(), 0)
        assert np.isfinite(update.metrics["loss"])

    def test_tiny_client_trains(self):
        config, dataset, clients = make_setup()
        tiny = ClientData(
            client_id=88,
            train=DataSplit(clients[0].train.images[:6], clients[0].train.labels[:6]),
            test=DataSplit(clients[0].test.images[:3], clients[0].test.labels[:3]),
        )
        algorithm = Calibre(config, 10, encoder_factory, num_prototypes=3)
        update = algorithm.local_update(tiny, algorithm.build_global_state(), 0)
        assert np.isfinite(update.metrics["loss"])
        result = algorithm.personalize(tiny, algorithm.build_global_state())
        assert 0.0 <= result.accuracy <= 1.0

    @pytest.mark.parametrize("ssl_name", ["simclr", "byol", "simsiam", "mocov2",
                                           "swav", "smog"])
    def test_full_run_all_variants_smoke(self, ssl_name):
        config, dataset, clients = make_setup(rounds=1)
        algorithm = Calibre(config, 10, encoder_factory, ssl_name=ssl_name,
                            num_prototypes=3)
        result = TrainingSession(algorithm, clients, config).execute()
        assert len(result.accuracies) == len(clients)
