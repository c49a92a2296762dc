"""The personalization stage shared by every method (paper §III-B).

After federated training converges, each client uses the frozen global
encoder θ_b as a feature extractor and trains a lightweight personalized
model φ — a linear classifier — on its local training set for 10 epochs
with SGD (lr 0.05, batch size 32), then reports accuracy on the local test
set.  The same routine also powers the Script-* local-only baselines and
head fine-tuning variants.

The stage runs on every client, so the probe is client-batched.
:func:`train_linear_probes` records one SGD step — the ``Linear`` forward
plus the one-hot cross-entropy — as a :mod:`repro.nn.trace` tape and
replays it over K clients whose feature shapes match, with
:class:`~repro.nn.BatchedSGD` stepping all K heads at once.  Slice k of
every replayed op is bitwise what a lone client computes, and each
client's generator is consumed in the lone client's order (head init, then
one permutation per epoch), so a client's result never depends on the
cohort it trained in.  :func:`train_linear_probe` is the K=1 case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.loader import batch_iterator
from ..nn import BatchedSGD, Linear, Tensor, no_grad
from ..nn import functional as F
from ..nn.losses import target_cross_entropy
from ..nn.trace import BatchedReplay, Trace

__all__ = [
    "PersonalizationResult",
    "ProbeTask",
    "train_linear_probe",
    "train_linear_probes",
    "evaluate_linear_head",
]


@dataclass
class PersonalizationResult:
    """Outcome of one client's personalization."""

    accuracy: float
    train_accuracy: float
    head: Linear
    losses: list


@dataclass
class ProbeTask:
    """One client's inputs to :func:`train_linear_probes`.

    ``rng`` must be the client's own generator: the engine interleaves
    clients, so generators shared between tasks would be consumed in a
    different order than a client-by-client loop consumes them.  Pass
    ``head`` to continue training an existing classifier in place.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    rng: np.random.Generator
    head: Optional[Linear] = None


HeadLayout = Tuple[Tuple[str, Tuple[int, ...], str], ...]
"""(name, shape, dtype) of each parameter of a linear head."""


def _head_layout(head: Linear) -> HeadLayout:
    return tuple((name, param.data.shape, str(param.data.dtype))
                 for name, param in head.named_parameters())


# A sealed trace holds no per-client data and depends only on its key, so
# one recorded step per (batch rows, feature dtype, head layout) serves
# every client, cohort and run in the process.
@functools.lru_cache(maxsize=64)
def _probe_trace(batch: int, features_dtype: str, layout: HeadLayout) -> Trace:
    """The probe step for ``batch`` rows: ``Linear`` forward + cross-entropy.

    Features, the one-hot target and the head's parameters are all trace
    leaves; recording runs on zeros because only the tape matters.
    """
    trace = Trace()
    leaves = {name: trace.add_param(name, np.zeros(shape, dtype))
              for name, shape, dtype in layout}
    feature_dim = leaves["weight"].shape[1]
    features = trace.add_input(
        "features", np.zeros((batch, feature_dim), features_dtype))
    with no_grad():
        logits = F.linear(features, leaves["weight"], leaves.get("bias"))
        target = trace.add_input("target",
                                 np.zeros(logits.shape, logits.data.dtype))
        trace.set_output(target_cross_entropy(logits, target))
    trace.seal()
    return trace


def _batched_accuracy(features: np.ndarray, labels: np.ndarray,
                      weight: np.ndarray, bias: Optional[np.ndarray]
                      ) -> List[float]:
    """Top-1 accuracy of K linear heads, each on its own client's features.

    ``features`` is ``(K, N, D)``, ``labels`` ``(K, N)``, ``weight``
    ``(K, C, D)`` and ``bias`` ``(K, C)``; slice k computes exactly what
    ``Linear.forward`` computes for client k alone.
    """
    if features.shape[1] == 0:
        return [0.0] * features.shape[0]
    logits = features @ np.swapaxes(weight, -1, -2)
    if bias is not None:
        logits = logits + bias[:, None, :]
    hits = logits.argmax(axis=2) == labels
    return [float(value) for value in hits.mean(axis=1)]


def _train_cohort(tasks: Sequence[ProbeTask], heads: Sequence[Linear],
                  epochs: int, learning_rate: float, batch_size: int,
                  momentum: float) -> List[PersonalizationResult]:
    """Train K shape-homogeneous probes as one client-batched run."""
    k = len(tasks)
    # Tensor() applies the dtype coercion the lone client's Tensor(features)
    # would, so the recorded input dtypes match.
    train_features = Tensor(np.stack([task.train_features for task in tasks])).data
    train_labels = np.stack([np.asarray(task.train_labels, dtype=np.int64)
                             for task in tasks])
    params = [dict(head.named_parameters()) for head in heads]
    leaves = {name: Tensor(np.stack([head[name].data for head in params]),
                           requires_grad=True)
              for name in params[0]}
    optimizer = BatchedSGD(list(leaves.values()), lr=learning_rate,
                           momentum=momentum, num_clients=k)
    rows = np.arange(k)[:, None]
    count = train_features.shape[1]
    classes = heads[0].weight.shape[0]
    layout = _head_layout(heads[0])
    epoch_losses = []
    for _ in range(epochs):
        iterators = [batch_iterator(count, batch_size, shuffle=True, rng=task.rng)
                     for task in tasks]
        total = np.zeros(k)
        batches = 0
        for batch in zip(*iterators):
            index = np.stack(batch)
            trace = _probe_trace(index.shape[1], str(train_features.dtype),
                                 layout)
            _, _, target_dtype = trace.inputs["target"]
            target = F.one_hot(train_labels[rows, index].reshape(-1), classes,
                               dtype=target_dtype)
            loss, _ = BatchedReplay(trace, k, counter="probe").run(
                {"features": train_features[rows, index],
                 "target": target.reshape(k, -1, classes)},
                leaves, {})
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            total += loss.data
            batches += 1
        epoch_losses.append(total / batches)
    for position, head in enumerate(params):
        for name, param in head.items():
            param.data[...] = leaves[name].data[position]
    bias = leaves["bias"].data if "bias" in leaves else None
    test_features = Tensor(np.stack([task.test_features for task in tasks])).data
    test_labels = np.stack([np.asarray(task.test_labels) for task in tasks])
    test_acc = _batched_accuracy(test_features, test_labels,
                                 leaves["weight"].data, bias)
    train_acc = _batched_accuracy(train_features, train_labels,
                                  leaves["weight"].data, bias)
    return [PersonalizationResult(
        accuracy=test_acc[position], train_accuracy=train_acc[position],
        head=head, losses=[float(losses[position]) for losses in epoch_losses])
        for position, head in enumerate(heads)]


def train_linear_probes(tasks: Sequence[ProbeTask], num_classes: int,
                        epochs: int = 10, learning_rate: float = 0.05,
                        batch_size: int = 32, momentum: float = 0.9
                        ) -> List[PersonalizationResult]:
    """Train one linear probe per task; results come back in task order.

    Every task's head is built first (consuming its generator exactly as
    a lone client would), then tasks whose train/test feature shapes,
    dtypes and head layouts agree train together as one batched cohort.
    Each result is bitwise identical to training that task alone.
    """
    for task in tasks:
        if task.train_features.shape[0] != np.shape(task.train_labels)[0]:
            raise ValueError("train features/labels disagree on N")
        if task.train_features.shape[0] == 0:
            raise ValueError("cannot personalize with no training samples")
    heads = [task.head if task.head is not None
             else Linear(task.train_features.shape[1], num_classes, rng=task.rng)
             for task in tasks]
    cohorts: Dict[Tuple, List[int]] = {}
    for position, (task, head) in enumerate(zip(tasks, heads)):
        signature = (task.train_features.shape, task.test_features.shape,
                     str(task.train_features.dtype), str(task.test_features.dtype),
                     _head_layout(head))
        cohorts.setdefault(signature, []).append(position)
    results: List[Optional[PersonalizationResult]] = [None] * len(tasks)
    for positions in cohorts.values():
        trained = _train_cohort([tasks[p] for p in positions],
                                [heads[p] for p in positions],
                                epochs, learning_rate, batch_size, momentum)
        for position, result in zip(positions, trained):
            results[position] = result
    return results


def train_linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    num_classes: int,
    epochs: int = 10,
    learning_rate: float = 0.05,
    batch_size: int = 32,
    momentum: float = 0.9,
    rng: Optional[np.random.Generator] = None,
    head: Optional[Linear] = None,
) -> PersonalizationResult:
    """Train the paper's personalized model: a linear classifier over frozen
    features.  Pass ``head`` to continue training an existing classifier
    in place (FedAvg-FT-style fine-tuning)."""
    # repro: allow[DET001] -- unseeded convenience fallback; federated paths always pass rng
    rng = rng if rng is not None else np.random.default_rng()
    task = ProbeTask(train_features, train_labels, test_features, test_labels,
                     rng=rng, head=head)
    (result,) = train_linear_probes([task], num_classes, epochs=epochs,
                                    learning_rate=learning_rate,
                                    batch_size=batch_size, momentum=momentum)
    return result


def evaluate_linear_head(head: Linear, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of a linear head over precomputed features."""
    bias = None if head.bias is None else head.bias.data[None]
    (accuracy,) = _batched_accuracy(Tensor(features).data[None],
                                    np.asarray(labels)[None],
                                    head.weight.data[None], bias)
    return accuracy
