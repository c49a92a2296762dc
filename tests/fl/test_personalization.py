"""The client-batched linear probe must equal the lone-client probe bitwise.

``_eager_probe`` below is the per-client SGD loop the batched engine
replaced, kept verbatim as the reference: one eager autograd step per
minibatch on one ``Linear`` head.  Every engine result — test and train
accuracy, per-epoch losses, trained head weights — must match it bit for
bit, whatever the cohort size K and however the batch schedule ends.
"""

import copy

import numpy as np
import pytest

from repro.data import make_cifar10_like
from repro.data.loader import batch_iterator
from repro.data.synthetic import DataSplit
from repro.eval import build_method
from repro.fl import ClientData, FederatedConfig, build_federation
from repro.fl.personalization import (
    ProbeTask,
    _head_layout,
    _probe_trace,
    evaluate_linear_head,
    train_linear_probe,
    train_linear_probes,
)
from repro.nn import SGD, Linear, MLPEncoder, Tensor, accuracy, cross_entropy, no_grad

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


class TestProbeTrace:
    def test_target_is_an_input_not_a_constant(self):
        head = Linear(FEATURE_DIM, CLASSES, rng=np.random.default_rng(0))
        trace = _probe_trace(BATCH, "float64", _head_layout(head))
        assert set(trace.inputs) == {"features", "target"}
        assert trace.inputs["target"][1] == (BATCH, CLASSES)
        assert set(trace.params) == {"weight", "bias"}
        for op in trace.ops:
            for tag, payload in op.inputs:
                if tag == "c":
                    assert np.ndim(payload) == 0, op.kind

    def test_traces_are_cached_by_batch_shape_and_dtype(self):
        layout = _head_layout(Linear(FEATURE_DIM, CLASSES,
                                     rng=np.random.default_rng(0)))
        first = _probe_trace(3, "float64", layout)
        assert _probe_trace(3, "float64", layout) is first
        assert _probe_trace(4, "float64", layout) is not first
        assert _probe_trace(3, "float32", layout) is not first


# ----------------------------------------------------------------------
# FederatedAlgorithm.cohort_personalize
# ----------------------------------------------------------------------
IMAGE_SIZE = 6
INPUT_DIM = 3 * IMAGE_SIZE * IMAGE_SIZE


def encoder_factory():
    return MLPEncoder(INPUT_DIM, hidden_dims=(16, 8), rng=np.random.default_rng(7))


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


def _same_results(first, second):
    assert first.accuracy == second.accuracy
    assert first.train_accuracy == second.train_accuracy
    assert first.losses == second.losses
    assert first.head.weight.data.tobytes() == second.head.weight.data.tobytes()


class TestCohortPersonalize:
    @pytest.mark.parametrize("name", ["pfl-simclr", "fedper"])
    def test_mixed_shapes_in_input_order(self, name):
        config = _config()
        clients = _mixed_clients()
        assert len({client.train.images.shape for client in clients}) == 2
        algorithm = build_method(name, config, 10, encoder_factory)
        global_state = algorithm.build_global_state()
        batched = algorithm.cohort_personalize(clients, global_state)
        for client, result in zip(clients, batched):
            _same_results(result, algorithm.personalize(client, global_state))

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
        with pytest.raises(ValueError) as lone:
            algorithm.personalize(empty, global_state)
        with pytest.raises(ValueError) as cohort:
            algorithm.cohort_personalize(clients[:2] + [empty], global_state)
        assert str(cohort.value) == str(lone.value)

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
