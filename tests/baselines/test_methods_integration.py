"""Integration tests: every registered method runs end-to-end and behaves.

These are the workhorse tests of the reproduction: a tiny federation is
trained with every algorithm in the registry, checking accuracy sanity,
determinism, state-shape discipline, and method-specific invariants.
"""

import numpy as np
import pytest

from repro.data import make_cifar10_like, partition_dirichlet
from repro.eval import available_methods, build_method
from repro.fl import FederatedConfig, FederatedServer, build_federation
from repro.nn import MLPEncoder

NUM_CLASSES = 10
IMAGE_SIZE = 8
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(24, 12), rng=np.random.default_rng(42))


def tiny_config(**overrides):
    defaults = dict(num_clients=4, clients_per_round=2, rounds=2, local_epochs=1,
                    batch_size=16, personalization_epochs=3, seed=0)
    defaults.update(overrides)
    return FederatedConfig(**defaults)


def tiny_federation(config, seed=0):
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=24,
                                test_per_class=4, seed=seed)
    parts = partition_dirichlet(dataset.train.labels, config.num_clients, 0.5,
                                samples_per_client=40,
                                rng=np.random.default_rng(seed))
    return dataset, build_federation(dataset, parts, seed=seed)


def run_method(name, config=None, seed=0, **overrides):
    config = config if config is not None else tiny_config(seed=seed)
    dataset, clients = tiny_federation(config, seed=seed)
    algorithm = build_method(name, config, NUM_CLASSES, encoder_factory, **overrides)
    server = FederatedServer(algorithm, clients, config)
    return server.run()


ALL_METHODS = available_methods()
FAST_METHODS = [m for m in ALL_METHODS if not m.startswith(("calibre", "pfl"))]
SSL_METHODS = [m for m in ALL_METHODS if m.startswith(("calibre", "pfl"))]


class TestRegistry:
    def test_expected_methods_present(self):
        expected = {
            "fedavg", "fedavg-ft", "scaffold", "scaffold-ft", "lg-fedavg",
            "fedper", "fedrep", "fedbabu", "perfedavg", "apfl", "ditto",
            "fedema", "script-fair", "script-convergent",
            "pfl-simclr", "pfl-byol", "pfl-simsiam", "pfl-mocov2",
            "calibre-simclr", "calibre-byol", "calibre-swav", "calibre-smog",
        }
        assert expected <= set(ALL_METHODS)

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            build_method("nope", tiny_config(), NUM_CLASSES, encoder_factory)

    def test_registry_count(self):
        # 14 non-SSL + 6 pfl-* + 6 calibre-* = 26 rows available.
        assert len(ALL_METHODS) == 26


@pytest.mark.parametrize("name", ALL_METHODS)
class TestEveryMethodRuns:
    def test_end_to_end(self, name):
        result = run_method(name)
        assert len(result.accuracies) == 4
        assert all(0.0 <= acc <= 1.0 for acc in result.accuracies.values())
        # Two tiny rounds cannot train every method well, but nothing should
        # sit below uniform 10-class chance.
        assert result.mean_accuracy > 0.05, (
            f"{name} mean accuracy {result.mean_accuracy:.3f} is below chance"
        )


@pytest.mark.parametrize("name", ["fedavg-ft", "fedrep", "calibre-simclr",
                                  "script-fair"])
class TestKeyMethodsLearn:
    def test_clearly_above_chance(self, name):
        # 4 rounds x 3 local epochs: enough for the SSL methods to clear
        # the bar with margin now that RandomSampler draws participants
        # purely from (seed, round_index) — the old stateful draw happened
        # to sample a friendlier sequence at 3x2.
        result = run_method(name, config=tiny_config(rounds=4, local_epochs=3))
        assert result.mean_accuracy > 0.3, (
            f"{name} mean accuracy {result.mean_accuracy:.3f} too low"
        )


@pytest.mark.parametrize("name", ["fedavg", "fedper", "calibre-simclr", "apfl"])
class TestDeterminism:
    def test_same_seed_same_result(self, name):
        first = run_method(name, seed=3)
        second = run_method(name, seed=3)
        assert first.accuracies == second.accuracies


class TestNovelClients:
    @pytest.mark.parametrize("name", ["fedavg-ft", "calibre-simclr", "ditto", "apfl",
                                      "fedbabu", "lg-fedavg"])
    def test_methods_handle_unseen_clients(self, name):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        from repro.fl import build_novel_clients

        def partition_fn(labels, n, rng):
            return partition_dirichlet(labels, n, 0.5, samples_per_client=20, rng=rng)

        novel = build_novel_clients(dataset, 2, partition_fn)
        algorithm = build_method(name, config, NUM_CLASSES, encoder_factory)
        server = FederatedServer(algorithm, clients, config, novel_clients=novel)
        result = server.run()
        assert len(result.novel_accuracies) == 2
        assert all(0.0 <= a <= 1.0 for a in result.novel_accuracies.values())


class TestMethodSpecificInvariants:
    def test_fedavg_ft_beats_fedavg(self):
        """Head fine-tuning must help under label skew (the paper's premise)."""
        config = tiny_config(rounds=3)
        plain = run_method("fedavg", config=config)
        tuned = run_method("fedavg-ft", config=config)
        assert tuned.mean_accuracy > plain.mean_accuracy

    def test_fedper_communicates_encoder_only(self):
        config = tiny_config()
        algorithm = build_method("fedper", config, NUM_CLASSES, encoder_factory)
        state = algorithm.build_global_state()
        assert all(k.startswith("encoder.") for k in state)

    def test_lgfedavg_communicates_head_only(self):
        config = tiny_config()
        algorithm = build_method("lg-fedavg", config, NUM_CLASSES, encoder_factory)
        state = algorithm.build_global_state()
        assert all(k.startswith("head.") for k in state)

    def test_fedbabu_head_is_frozen_during_training(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("fedbabu", config, NUM_CLASSES, encoder_factory)
        global_state = algorithm.build_global_state()
        initial_head = {
            k: v.copy() for k, v in algorithm._initial_state.items()
            if k.startswith("head.")
        }
        algorithm.local_update(clients[0], global_state, 0)
        # Template head must still equal the fixed initialization.
        for key, value in initial_head.items():
            np.testing.assert_array_equal(algorithm._template.state_dict()[key], value)

    def test_scaffold_maintains_control_variates(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("scaffold", config, NUM_CLASSES, encoder_factory)
        global_state = algorithm.build_global_state()
        update = algorithm.local_update(clients[0], global_state, 0)
        assert "control" in update.payload
        control = clients[0].store["scaffold/control"]
        assert any(np.any(v != 0) for v in control.values())

    def test_apfl_stores_personal_model_and_alpha(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("apfl", config, NUM_CLASSES, encoder_factory)
        global_state = algorithm.build_global_state()
        update = algorithm.local_update(clients[0], global_state, 0)
        slot = clients[0].store["apfl/personal"]
        assert 0.0 <= slot["alpha"] <= 1.0
        assert "alpha" in update.metrics

    def test_ditto_personal_model_differs_from_global(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("ditto", config, NUM_CLASSES, encoder_factory)
        global_state = algorithm.build_global_state()
        algorithm.local_update(clients[0], global_state, 0)
        personal = clients[0].store["ditto/personal"]
        changed = any(
            not np.allclose(personal[k], global_state[k]) for k in global_state
        )
        assert changed

    def test_script_methods_skip_federation(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("script-fair", config, NUM_CLASSES, encoder_factory)
        assert algorithm.build_global_state() == {}
        update = algorithm.local_update(clients[0], {}, 0)
        assert update.state == {}

    def test_calibre_reports_divergence(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("calibre-simclr", config, NUM_CLASSES, encoder_factory,
                                 num_prototypes=3)
        global_state = algorithm.build_global_state()
        emitted = []
        local_loss = algorithm.local_loss

        def spy(method, outputs, rng):
            loss, metrics = local_loss(method, outputs, rng)
            emitted.append(metrics)
            return loss, metrics

        algorithm.local_loss = spy
        update = algorithm.local_update(clients[0], global_state, 0)
        assert update.metrics["divergence"] > 0
        assert "l_n" in update.metrics
        assert "l_c" in update.metrics
        # l_p needs two clusters populated in both views, so some batches
        # skip it; it averages over the batches that emitted it.
        l_p = [metrics["l_p"] for metrics in emitted if "l_p" in metrics]
        assert l_p
        assert update.metrics["l_p"] == sum(l_p) / len(l_p)

    def test_calibre_ablation_toggles(self):
        config = tiny_config()
        dataset, clients = tiny_federation(config)
        algorithm = build_method("calibre-simclr", config, NUM_CLASSES, encoder_factory,
                                 num_prototypes=3, use_ln=False, use_lp=False,
                                 use_lc=False)
        global_state = algorithm.build_global_state()
        update = algorithm.local_update(clients[0], global_state, 0)
        assert "l_n" not in update.metrics
        assert "l_c" not in update.metrics

    def test_fedema_mixes_rather_than_overwrites(self):
        config = tiny_config(rounds=1)
        dataset, clients = tiny_federation(config)
        algorithm = build_method("fedema", config, NUM_CLASSES, encoder_factory,
                                 ema_lambda=10.0)
        global_state = algorithm.build_global_state()
        # First participation: plain load; store local state.
        algorithm.local_update(clients[0], global_state, 0)
        key = "fedema/local"
        assert key in clients[0].store
        # Second participation with a perturbed global: local model should be
        # mixed, not replaced, so the loaded state differs from pure global.
        perturbed = {k: v + 1.0 for k, v in global_state.items()}
        method = algorithm._restore_client_method(clients[0], perturbed)
        loaded = method.global_state()
        differs_from_global = any(
            not np.allclose(loaded[k], perturbed[k]) for k in perturbed
        )
        assert differs_from_global

    def test_perfedavg_adapts_at_personalization(self):
        result = run_method("perfedavg")
        assert result.mean_accuracy > 0.15
