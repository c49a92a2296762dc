"""Tests for the pFL-SSL base algorithm: state persistence and wire format."""

import json
import warnings
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import PFLSSL, FedEMA
from repro.data import make_cifar10_like, make_stl10_like, partition_dirichlet
from repro.eval import available_methods, build_method
from repro.fl import FederatedConfig, TrainingSession, build_federation
from repro.fl.session import SessionCallback, read_checkpoint, write_checkpoint
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


SSL_METHODS = [name for name in available_methods()
               if name.startswith(("pfl-", "calibre-")) or name == "fedema"]


def assert_same_arrays(left, right):
    assert list(left) == list(right)
    for key in left:
        assert left[key].dtype == right[key].dtype, key
        np.testing.assert_array_equal(left[key], right[key])


def homogeneous_clients(count=3):
    """Equal single-class partitions: one cohort the batched engine runs."""
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=48,
                                test_per_class=4, seed=0)
    parts = [np.where(dataset.train.labels == label)[0][:12]
             for label in range(count)]
    return build_federation(dataset, parts, test_fraction=0.25, seed=0)


class TestKeptState:
    """A client's store keeps only what the next restore does not
    overwrite with the global model: the state keys outside
    ``global_state()`` and the extra state.  FedEMA, which mixes its saved
    online network into the incoming global model, keeps everything."""

    @pytest.mark.parametrize("name", SSL_METHODS)
    def test_store_holds_exactly_the_kept_state(self, name):
        config, _, clients = make_setup()
        algorithm = build_method(name, config, 10, encoder_factory)
        algorithm.local_update(clients[0], algorithm.build_global_state(), 0)
        template = algorithm._template
        trained, extra = template.state_dict(), template.extra_state()
        global_keys = set(template.global_state())
        kept = OrderedDict((key, value) for key, value in trained.items()
                           if name == "fedema" or key not in global_keys)
        # Only SimCLR's clients have nothing of their own to keep.
        assert (not kept and not extra) == name.endswith("simclr")
        if not kept and not extra:
            assert clients[0].store == {}
            return
        assert list(clients[0].store) == [f"{algorithm.name}/local"]
        saved_state, saved_extra = clients[0].store[f"{algorithm.name}/local"]
        assert_same_arrays(saved_state, kept)
        assert_same_arrays(saved_extra, extra)

    @pytest.mark.parametrize("name", ["pfl-simclr", "calibre-simsiam"])
    def test_batched_cohort_keeps_what_one_client_keeps(self, name):
        config = FederatedConfig(num_clients=3, clients_per_round=3,
                                 rounds=1, local_epochs=1, batch_size=4,
                                 seed=0)
        algorithm = build_method(name, config, 10, encoder_factory)
        global_state = algorithm.build_global_state()
        batched, alone = homogeneous_clients(), homogeneous_clients()
        algorithm.cohort_update(batched, global_state, 0)
        assert algorithm._trace_cache  # the cohort ran batched
        for client in alone:
            algorithm.local_update(client, global_state, 0)
        for left, right in zip(batched, alone):
            assert list(left.store) == list(right.store)
            for key in left.store:
                assert_same_arrays(left.store[key][0], right.store[key][0])
                assert left.store[key][1] == right.store[key][1] == {}
        assert (batched[0].store == {}) == name.endswith("simclr")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_calibre_simclr_leaves_every_store_empty(self, backend):
        config, _, clients = make_setup()
        config = config.with_overrides(clients_per_round=3, rounds=2,
                                       backend=backend, workers=1)
        algorithm = build_method("calibre-simclr", config, 10, encoder_factory,
                                 num_prototypes=3)
        session = TrainingSession(algorithm, clients, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no fallback
            session.execute()
        assert [client.store for client in clients] == [{}, {}, {}]
        assert session.capture_state().client_stores == {}

    @pytest.mark.parametrize("name", ["pfl-simclr", "pfl-simsiam",
                                      "pfl-mocov2"])
    def test_full_store_restores_as_the_kept_one(self, name):
        """A store holding the whole trained state, as stores did before
        they kept only client-local state, restores to the same model and
        trains to the same update; the next update trims it, or removes
        it when nothing is kept."""
        config, _, clients = make_setup()
        algorithm = build_method(name, config, 10, encoder_factory)
        global_state = algorithm.build_global_state()
        kept_client = clients[0]
        algorithm.local_update(kept_client, global_state, 0)
        template = algorithm._template
        full_client = replace(kept_client, store={f"{name}/local": (
            template.state_dict(), template.extra_state())})
        moved = {key: value + 0.25 for key, value in global_state.items()}

        def restored(client):
            method = algorithm._restore_client_method(client, moved)
            return method.state_dict(), method.extra_state()

        full_state, full_extra = restored(full_client)
        kept_state, kept_extra = restored(kept_client)
        assert_same_arrays(full_state, kept_state)
        assert_same_arrays(full_extra, kept_extra)
        full_update = algorithm.local_update(full_client, moved, 1)
        kept_update = algorithm.local_update(kept_client, moved, 1)
        assert_same_arrays(full_update.state, kept_update.state)
        assert list(full_client.store) == list(kept_client.store)
        for key in kept_client.store:
            assert_same_arrays(full_client.store[key][0],
                               kept_client.store[key][0])
            assert_same_arrays(full_client.store[key][1],
                               kept_client.store[key][1])
        assert (full_client.store == {}) == name.endswith("simclr")


class _FullStores(SessionCallback):
    """Records each trained client's whole state, the store SimCLR
    clients held before stores kept only client-local state."""

    def __init__(self):
        self.stores = {}

    def on_client_update_done(self, session, event):
        self.stores[event.client_id] = {
            f"{session.algorithm.name}/local": (
                OrderedDict(event.update.state), {})}


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_resume_from_full_simclr_stores_matches_uninterrupted(tmp_path,
                                                              backend):
    def session_of(backend):
        config, _, clients = make_setup()
        config = config.with_overrides(rounds=3, backend=backend, workers=1)
        algorithm = build_method("calibre-simclr", config, 10,
                                 encoder_factory, num_prototypes=3)
        return TrainingSession(algorithm, clients, config)

    reference = json.dumps(session_of("serial").execute().to_json())
    partial = session_of(backend)
    full = partial.add_callback(_FullStores())
    with partial:
        partial.run_until(2)
        state = partial.capture_state()
    assert state.client_stores == {} and full.stores
    path = write_checkpoint(replace(state, client_stores=full.stores),
                            tmp_path / "ckpt.json")
    assert sorted(read_checkpoint(path).client_stores) == sorted(full.stores)
    resumed = session_of(backend)
    with warnings.catch_warnings(), resumed:
        warnings.simplefilter("error", RuntimeWarning)  # no fallback
        resumed.load_checkpoint(path)
        assert json.dumps(resumed.execute().to_json()) == reference


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
