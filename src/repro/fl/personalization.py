"""The personalization stage shared by every method (paper §III-B).

After federated training converges, each client uses the frozen global
encoder θ_b as a feature extractor and trains a lightweight personalized
model φ — a linear classifier — on its local training set for 10 epochs
with SGD (lr 0.05, batch size 32), then reports accuracy on the local test
set.  The same routine also powers the Script-* local-only baselines and
head fine-tuning variants.

The stage runs on every client, so the probe is client-batched.
:func:`train_linear_probes` stacks the heads of K clients whose feature
shapes match on a leading client axis and takes every SGD step — the
``Linear`` forward, the one-hot cross-entropy, its gradient and the
momentum update — as plain numpy over that axis.  The step is the
autograd engine's own arithmetic written out: the same numpy calls in the
same order as ``F.linear`` plus ``target_cross_entropy`` replayed,
differentiated by ``Tensor.backward`` and stepped by ``SGD.step``, so it
is bitwise what the engine computed without building a graph.  Slice k of
every array is what a lone client computes, and each client's generator
is consumed in the lone client's order (head init, then one permutation
per epoch), so a client's result never depends on the cohort it trained
in.  :func:`train_linear_probe` is the K=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..nn import Linear, Tensor
from ..nn import functional as F

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


def _probe_step(features: np.ndarray, target: np.ndarray, weight: np.ndarray,
                bias: Optional[np.ndarray]):
    """One SGD step's loss ``(K,)`` and gradients, in parameter order.

    The numpy calls the engine makes for ``F.linear`` plus
    ``target_cross_entropy``, forward and backward, in its order.  The
    backward needs no graph: with c = -1/B the engine hands c to every
    element of the summed loss, the log-sum-exp's gradient sums a row of
    c and signed zeros (exactly c), so the gradient at the logits is
    exactly ``target * c + e * ((-c) / s)``.
    """
    batch = features.shape[1]
    logits = features @ np.swapaxes(weight, -1, -2)
    if bias is not None:
        logits = logits + bias[:, None, :]
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=2, keepdims=True)
    loss = -((target * (shifted - np.log(total))).sum(axis=2).sum(axis=1) / batch)
    c = logits.dtype.type(-1.0) / batch
    grad = target * c + exp * ((-c) / total)
    grad_weight = np.swapaxes(np.swapaxes(features, -1, -2) @ grad, -1, -2)
    if bias is None:
        return loss, (grad_weight,)
    return loss, (grad_weight, grad.sum(axis=1))


def _train_cohort(tasks: Sequence[ProbeTask], heads: Sequence[Linear],
                  epochs: int, learning_rate: float, batch_size: int,
                  momentum: float) -> List[PersonalizationResult]:
    """Train K shape-homogeneous probes as one client-batched run."""
    k = len(tasks)
    # Tensor() applies the dtype coercion a lone client's Tensor(features) gets.
    train_features = Tensor(np.stack([task.train_features for task in tasks])).data
    train_labels = np.stack([np.asarray(task.train_labels, dtype=np.int64)
                             for task in tasks])
    weight = np.stack([head.weight.data for head in heads])
    bias = (None if heads[0].bias is None
            else np.stack([head.bias.data for head in heads]))
    params = [weight] if bias is None else [weight, bias]
    # SGD.step's velocity buffers, which exist only with momentum.
    velocities = [np.zeros_like(param) if momentum else None for param in params]
    count = train_features.shape[1]
    rows = np.arange(k)[:, None]
    starts = range(0, count, batch_size)
    epoch_losses = []
    if epochs:
        # One encoding serves every step; a zero-epoch probe range-checks no label.
        classes = weight.shape[1]
        targets = F.one_hot(train_labels.reshape(-1), classes,
                            dtype=np.result_type(train_features, *params))
        targets = targets.reshape(k, count, classes)
    for _ in range(epochs):
        # A lone client's shuffled batch_iterator draws one permutation per
        # epoch; the clients draw theirs in cohort order.
        orders = np.stack([task.rng.permutation(count) for task in tasks])
        total = np.zeros(k)
        for start in starts:
            index = orders[:, start:start + batch_size]
            loss, grads = _probe_step(train_features[rows, index],
                                      targets[rows, index], weight, bias)
            for param, grad, velocity in zip(params, grads, velocities):
                if velocity is not None:
                    velocity *= momentum
                    velocity += grad
                    grad = velocity
                param -= learning_rate * grad
            total += loss
        epoch_losses.append(total / len(starts))
        telemetry.count("probe.steps", len(starts))
        telemetry.count("probe.step_clients", k * len(starts))
    for position, head in enumerate(heads):
        for param, stacked in zip(head.parameters(), params):
            param.data[...] = stacked[position]
    test_features = Tensor(np.stack([task.test_features for task in tasks])).data
    test_labels = np.stack([np.asarray(task.test_labels) for task in tasks])
    test_acc = _batched_accuracy(test_features, test_labels, weight, bias)
    train_acc = _batched_accuracy(train_features, train_labels, weight, bias)
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
    a lone client would), then tasks whose train/test feature shapes and
    dtypes, and head parameter shapes and dtypes, agree train together as
    one batched cohort.  Each result is bitwise identical to training that
    task alone.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    # SGD steps with float(lr): a numpy scalar would promote float32 heads.
    learning_rate = float(learning_rate)
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
                     task.train_features.dtype, task.test_features.dtype,
                     tuple((param.data.shape, param.data.dtype)
                           for param in head.parameters()))
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
