"""The client-batched linear probe must equal the lone-client probe bitwise.

``_eager_probe`` below is the per-client SGD loop the batched engine
replaced, kept verbatim as the reference: one eager autograd step per
minibatch on one ``Linear`` head.  Every engine result — test and train
accuracy, per-epoch losses, trained head weights — must match it bit for
bit, whatever the cohort size K and however the batch schedule ends.
The engine writes its step out in plain numpy, so these tests hold that
step to the autograd engine's arithmetic.
"""

import copy

import numpy as np
import pytest

from repro.data import make_cifar10_like
from repro.data.loader import batch_iterator
from repro.data.synthetic import DataSplit
from repro.baselines.supervised import evaluate_model
from repro.eval import build_method
from repro.fl import ClassifierModel, ClientData, FederatedConfig, build_federation
from repro.fl.personalization import (
    ProbeTask,
    evaluate_linear_head,
    train_linear_probe,
    train_linear_probes,
)
from repro.nn import (SGD, Linear, MLPEncoder, SmallConvEncoder, Tensor,
                      accuracy, cross_entropy, no_grad)
from repro.nn.trace import BatchedReplay
from repro.telemetry import Tracer

FEATURE_DIM = 6
CLASSES = 4
BATCH = 8


def _eager_evaluate(head, features, labels):
    if features.shape[0] == 0:
        return 0.0
    with no_grad():
        logits = head(Tensor(features))
    return accuracy(logits, labels)


def _eager_probe(train_features, train_labels, test_features, test_labels,
                 num_classes, epochs=10, learning_rate=0.05, batch_size=32,
                 momentum=0.9, rng=None, head=None):
    """The per-client probe loop the batched engine replaced."""
    if head is None:
        head = Linear(train_features.shape[1], num_classes, rng=rng)
    optimizer = SGD(head.parameters(), lr=learning_rate, momentum=momentum)
    losses = []
    for _ in range(epochs):
        epoch_loss = 0.0
        batches = 0
        for batch in batch_iterator(train_features.shape[0], batch_size,
                                    shuffle=True, rng=rng):
            optimizer.zero_grad()
            logits = head(Tensor(train_features[batch]))
            loss = cross_entropy(logits, train_labels[batch])
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
    return (_eager_evaluate(head, test_features, test_labels),
            _eager_evaluate(head, train_features, train_labels), head, losses)


def _client_arrays(seed, n_train, n_test=7):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((CLASSES, FEATURE_DIM)) * 2.0
    train_labels = rng.integers(0, CLASSES, n_train)
    test_labels = rng.integers(0, CLASSES, n_test)
    train = centers[train_labels] + rng.standard_normal((n_train, FEATURE_DIM))
    test = centers[test_labels] + rng.standard_normal((n_test, FEATURE_DIM))
    return train, train_labels, test, test_labels


def _assert_same(result, reference):
    ref_acc, ref_train_acc, ref_head, ref_losses = reference
    assert result.accuracy == ref_acc
    assert result.train_accuracy == ref_train_acc
    assert result.losses == ref_losses
    for (name, param), (_, ref_param) in zip(result.head.named_parameters(),
                                             ref_head.named_parameters()):
        assert param.data.tobytes() == ref_param.data.tobytes(), name


# n < batch, n == batch, n % batch != 0
SIZES = [5, BATCH, 19]


class TestEngineMatchesEagerLoop:
    @pytest.mark.parametrize("n_train", SIZES)
    @pytest.mark.parametrize("k", [1, 5])
    def test_fresh_heads(self, k, n_train):
        arrays = [_client_arrays(seed, n_train) for seed in range(k)]
        tasks = [ProbeTask(*client, rng=np.random.default_rng(100 + index))
                 for index, client in enumerate(arrays)]
        results = train_linear_probes(tasks, CLASSES, epochs=3,
                                      batch_size=BATCH)
        assert len(results) == k
        for index, (client, result) in enumerate(zip(arrays, results)):
            reference = _eager_probe(*client, CLASSES, epochs=3,
                                     batch_size=BATCH,
                                     rng=np.random.default_rng(100 + index))
            _assert_same(result, reference)

    @pytest.mark.parametrize("n_train", SIZES)
    @pytest.mark.parametrize("k", [1, 5])
    def test_warm_heads_train_in_place(self, k, n_train):
        arrays = [_client_arrays(seed, n_train) for seed in range(k)]
        heads = [Linear(FEATURE_DIM, CLASSES, rng=np.random.default_rng(50 + i))
                 for i in range(k)]
        references = [
            _eager_probe(*client, CLASSES, epochs=2, batch_size=BATCH,
                         rng=np.random.default_rng(200 + index),
                         head=copy.deepcopy(head))
            for index, (client, head) in enumerate(zip(arrays, heads))]
        weight_arrays = [head.weight.data for head in heads]
        tasks = [ProbeTask(*client, rng=np.random.default_rng(200 + index),
                           head=head)
                 for index, (client, head) in enumerate(zip(arrays, heads))]
        results = train_linear_probes(tasks, CLASSES, epochs=2,
                                      batch_size=BATCH)
        for head, array, result, reference in zip(heads, weight_arrays,
                                                  results, references):
            assert result.head is head
            assert head.weight.data is array
            _assert_same(result, reference)

    def test_single_client_wrapper_matches_eager_loop(self):
        client = _client_arrays(3, 19)
        result = train_linear_probe(*client, CLASSES, epochs=4, batch_size=BATCH,
                                    rng=np.random.default_rng(9))
        reference = _eager_probe(*client, CLASSES, epochs=4, batch_size=BATCH,
                                 rng=np.random.default_rng(9))
        _assert_same(result, reference)

    def test_mixed_shapes_come_back_in_task_order(self):
        sizes = [19, 5, 19, 8, 5]
        arrays = [_client_arrays(seed, n) for seed, n in enumerate(sizes)]
        tasks = [ProbeTask(*client, rng=np.random.default_rng(index))
                 for index, client in enumerate(arrays)]
        results = train_linear_probes(tasks, CLASSES, epochs=2, batch_size=BATCH)
        for index, (client, result) in enumerate(zip(arrays, results)):
            reference = _eager_probe(*client, CLASSES, epochs=2,
                                     batch_size=BATCH,
                                     rng=np.random.default_rng(index))
            _assert_same(result, reference)

    def test_evaluate_matches_eager(self):
        train, labels, test, test_labels = _client_arrays(4, 12)
        head = Linear(FEATURE_DIM, CLASSES, rng=np.random.default_rng(1))
        assert evaluate_linear_head(head, test, test_labels) \
            == _eager_evaluate(head, test, test_labels)
        assert evaluate_linear_head(head, test[:0], test_labels[:0]) == 0.0


def _cohort_matches_eager(arrays, epochs=2, momentum=0.9, heads=None):
    """Train ``arrays`` as one call and each client alone; compare bitwise."""
    heads = heads or [None] * len(arrays)
    references = [
        _eager_probe(*client, CLASSES, epochs=epochs, batch_size=BATCH,
                     momentum=momentum, rng=np.random.default_rng(300 + index),
                     head=copy.deepcopy(head))
        for index, (client, head) in enumerate(zip(arrays, heads))]
    tasks = [ProbeTask(*client, rng=np.random.default_rng(300 + index),
                       head=head)
             for index, (client, head) in enumerate(zip(arrays, heads))]
    results = train_linear_probes(tasks, CLASSES, epochs=epochs,
                                  batch_size=BATCH, momentum=momentum)
    for result, reference in zip(results, references):
        _assert_same(result, reference)


class TestNumpyStep:
    """Cases where the written-out step could part from the engine's."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_float32_features_promote_like_the_engine(self, k):
        arrays = []
        for seed in range(k):
            train, labels, test, test_labels = _client_arrays(seed, 19)
            arrays.append((train.astype(np.float32), labels,
                           test.astype(np.float32), test_labels))
        _cohort_matches_eager(arrays)

    @pytest.mark.parametrize("k", [1, 3])
    def test_warm_head_without_bias(self, k):
        arrays = [_client_arrays(seed, 19) for seed in range(k)]
        heads = [Linear(FEATURE_DIM, CLASSES, bias=False,
                        rng=np.random.default_rng(60 + index))
                 for index in range(k)]
        _cohort_matches_eager(arrays, heads=heads)

    @pytest.mark.parametrize("n_train", [1, BATCH + 1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_sample_batches(self, k, n_train):
        arrays = [_client_arrays(seed, n_train) for seed in range(k)]
        _cohort_matches_eager(arrays, epochs=3)

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_momentum_keeps_no_velocity(self, k):
        arrays = [_client_arrays(seed, 19) for seed in range(k)]
        _cohort_matches_eager(arrays, momentum=0.0)

    def test_never_enters_the_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the probe entered the autograd engine")

        monkeypatch.setattr(Tensor, "backward", refuse)
        monkeypatch.setattr(BatchedReplay, "run", refuse)
        monkeypatch.setattr(SGD, "step", refuse)
        arrays = [_client_arrays(seed, n) for seed, n in enumerate([19, 5, 19])]
        tasks = [ProbeTask(*client, rng=np.random.default_rng(index))
                 for index, client in enumerate(arrays)]
        results = train_linear_probes(tasks, CLASSES, epochs=2, batch_size=BATCH)
        assert all(len(result.losses) == 2 for result in results)

    def test_step_counters_per_cohort(self):
        # Two cohorts: two clients of 19 samples (3 batches of 8) and one
        # of 5 (1 batch).
        epochs = 3
        arrays = [_client_arrays(seed, n) for seed, n in enumerate([19, 5, 19])]
        tasks = [ProbeTask(*client, rng=np.random.default_rng(index))
                 for index, client in enumerate(arrays)]
        tracer = Tracer()
        with tracer.activate():
            train_linear_probes(tasks, CLASSES, epochs=epochs, batch_size=BATCH)
        assert tracer.counters["probe.steps"] == epochs * (3 + 1)
        assert tracer.counters["probe.step_clients"] == epochs * (2 * 3 + 1 * 1)

    def test_zero_epochs_count_no_steps_and_check_no_labels(self):
        train, labels, test, test_labels = _client_arrays(0, 8)
        tracer = Tracer()
        with tracer.activate():
            result = train_linear_probe(train, labels + CLASSES, test,
                                        test_labels, CLASSES, epochs=0,
                                        rng=np.random.default_rng(0))
        assert result.losses == []
        assert "probe.steps" not in tracer.counters

    def test_bad_arguments_raise(self):
        client = _client_arrays(0, 8)
        for options, message in [
                (dict(batch_size=0), "batch_size must be >= 1"),
                (dict(learning_rate=0.0), "learning rate must be positive"),
                (dict(momentum=1.0), r"momentum must be in \[0, 1\)")]:
            with pytest.raises(ValueError, match=message):
                train_linear_probe(*client, CLASSES,
                                   rng=np.random.default_rng(0), **options)
        with pytest.raises(ValueError, match="labels out of range"):
            train_linear_probe(client[0], client[1] + CLASSES, *client[2:],
                               CLASSES, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# FederatedAlgorithm.cohort_personalize
# ----------------------------------------------------------------------
IMAGE_SIZE = 6
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(16, 8), rng=np.random.default_rng(7))


def conv_encoder_factory():
    """An encoder without a client axis: features are encoded per array."""
    return SmallConvEncoder(in_channels=3, width=2, rng=np.random.default_rng(7))


ENCODER_FACTORIES = {"mlp": encoder_factory, "smallconv": conv_encoder_factory}


def _build(name, config):
    """``build_method`` for ``<method>[@<encoder>]`` (default encoder mlp)."""
    method, _, encoder = name.partition("@")
    return build_method(method, config, 10, ENCODER_FACTORIES[encoder or "mlp"])


def _config():
    return FederatedConfig(num_clients=5, clients_per_round=5, rounds=1,
                           local_epochs=1, batch_size=4,
                           personalization_epochs=2, seed=0)


def _mixed_clients():
    """Equal-class partitions of 12 and 16 samples: two feature shapes."""
    dataset = make_cifar10_like(image_size=IMAGE_SIZE, train_per_class=48,
                                test_per_class=4, seed=0)
    labels = dataset.train.labels
    sizes = [12, 16, 12, 16, 12]
    parts = [np.where(labels == c)[0][:size] for c, size in enumerate(sizes)]
    return build_federation(dataset, parts, test_fraction=0.25, seed=0)


def _trained(algorithm, clients):
    """One round of local updates and aggregation: a global state (and,
    for body/head methods, client stores) that differ from round 0."""
    initial = algorithm.build_global_state()
    updates = [algorithm.local_update(client, initial, 0) for client in clients]
    return algorithm.aggregate(updates, initial, 0)


def _same_results(first, second):
    assert first.accuracy == second.accuracy
    assert first.train_accuracy == second.train_accuracy
    assert first.losses == second.losses
    for (name, param), (_, other) in zip(first.head.named_parameters(),
                                         second.head.named_parameters()):
        assert param.data.tobytes() == other.data.tobytes(), name


# Every method whose personalization is the linear probe.
PROBE_METHODS = ["fedavg", "fedavg-ft", "scaffold", "scaffold-ft", "fedper",
                 "fedrep", "lg-fedavg", "fedbabu", "script-fair",
                 "script-convergent", "pfl-simclr"]

# Methods whose probe starts from (or whose personal model keeps) a head
# on the algorithm's shared template.
TEMPLATE_HEAD_METHODS = ["fedper", "fedrep", "lg-fedavg", "fedbabu",
                         "fedavg-ft", "scaffold-ft", "fedavg", "scaffold",
                         "apfl", "ditto", "perfedavg"]


class TestCohortPersonalize:
    @pytest.mark.parametrize("name", PROBE_METHODS + ["pfl-simclr@smallconv"])
    def test_mixed_shapes_in_input_order(self, name):
        config = _config()
        clients = _mixed_clients()
        assert len({client.train.images.shape for client in clients}) == 2
        algorithm = _build(name, config)
        global_state = _trained(algorithm, clients)
        # Snapshots: no later personalization may change a result already
        # handed out.
        batched = copy.deepcopy(algorithm.cohort_personalize(clients, global_state))
        lone = [copy.deepcopy(algorithm.personalize(client, global_state))
                for client in clients]
        for result, alone in zip(batched, lone):
            _same_results(result, alone)

    @pytest.mark.parametrize("name", TEMPLATE_HEAD_METHODS)
    def test_every_result_owns_its_head(self, name):
        config = _config()
        clients = _mixed_clients()[:3]
        algorithm = build_method(name, config, 10, encoder_factory)
        global_state = _trained(algorithm, clients)
        results = algorithm.cohort_personalize(clients, global_state)
        assert len({id(result.head) for result in results}) == len(results)
        for client, result in zip(clients, results):
            _same_results(result, algorithm.personalize(client, global_state))

    @pytest.mark.parametrize("name", ["fedavg", "scaffold"])
    def test_zero_epoch_probe_is_global_model_evaluation(self, name):
        config = _config()
        clients = _mixed_clients()
        algorithm = build_method(name, config, 10, encoder_factory)
        global_state = _trained(algorithm, clients)
        model = ClassifierModel(encoder_factory, 10)
        model.load_state_dict(global_state)
        for client in clients:
            result = algorithm.personalize(client, global_state)
            assert result.accuracy == evaluate_model(model, client.test)
            assert result.train_accuracy == evaluate_model(model, client.train)
            assert result.losses == []

    def test_zero_training_samples_raise(self):
        config = _config()
        clients = _mixed_clients()
        empty = ClientData(
            client_id=99,
            train=DataSplit(clients[0].train.images[:0],
                            clients[0].train.labels[:0]),
            test=clients[0].test)
        algorithm = build_method("pfl-simclr", config, 10, encoder_factory)
        global_state = algorithm.build_global_state()
        message = "cannot personalize client 99 with no training samples"
        with pytest.raises(ValueError, match=message):
            algorithm.personalize(empty, global_state)
        with pytest.raises(ValueError, match=message):
            algorithm.cohort_personalize(clients[:2] + [empty], global_state)

    @pytest.mark.parametrize("encoder", ["mlp", "smallconv"])
    def test_cohort_features_equal_lone_features(self, encoder):
        # One call over every client's train and test arrays (four shape
        # groups) gives each array bitwise its lone extraction.
        config = _config()
        clients = _mixed_clients()
        algorithm = _build(f"pfl-simclr@{encoder}", config)
        global_state = _trained(algorithm, clients)
        owners = [client for client in clients for _ in range(2)]
        arrays = [split.images for client in clients
                  for split in (client.train, client.test)]
        cohort = algorithm.extract_features(owners, global_state, arrays)
        assert len(cohort) == len(arrays)
        for owner, array, features in zip(owners, arrays, cohort):
            (alone,) = algorithm.extract_features([owner], global_state, [array])
            assert features.shape == alone.shape == (len(array), 8)
            assert features.tobytes() == alone.tobytes()

    def test_cohort_loads_the_global_state_once(self, monkeypatch):
        config = _config()
        clients = _mixed_clients()
        algorithm = build_method("pfl-simclr", config, 10, encoder_factory)
        global_state = _trained(algorithm, clients)
        template = algorithm._template
        loads = []
        load = template.load_global_state
        monkeypatch.setattr(template, "load_global_state",
                            lambda state: loads.append(1) or load(state))
        algorithm.cohort_personalize(clients, global_state)
        assert len(loads) == 1

    def test_engine_rejects_zero_training_samples(self):
        train, labels, test, test_labels = _client_arrays(0, 8)
        good = ProbeTask(train, labels, test, test_labels,
                         rng=np.random.default_rng(0))
        empty = ProbeTask(train[:0], labels[:0], test, test_labels,
                          rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="no training samples"):
            train_linear_probes([good, empty], CLASSES)
        with pytest.raises(ValueError, match="no training samples"):
            train_linear_probe(train[:0], labels[:0], test, test_labels, CLASSES)
