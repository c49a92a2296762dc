"""Supervised loss functions used by the personalization stage and baselines."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor

__all__ = ["cross_entropy", "target_cross_entropy", "mse_loss",
           "l2_regularization", "accuracy"]


def cross_entropy(logits: Tensor, labels: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``labels`` (N,).

    ``label_smoothing`` mixes the one-hot target with the uniform
    distribution, as in modern classification recipes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects (N, K) logits, got {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be 1-D and match the batch dimension")
    num_classes = logits.shape[1]
    target = F.one_hot(labels, num_classes, dtype=logits.data.dtype)
    if label_smoothing > 0.0:
        target = target * (1.0 - label_smoothing) + label_smoothing / num_classes
    return target_cross_entropy(logits, Tensor(target))


def target_cross_entropy(logits: Tensor, target: Tensor) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and a dense target (N, K).

    The body of :func:`cross_entropy` once the labels are encoded.  Taking
    the target as a tensor lets a trace record it as an input, so the
    client-batched linear probe never captures one client's labels as a
    shared constant.
    """
    log_probs = F.log_softmax(logits, axis=1)
    return -(target * log_probs).sum(axis=1).mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def l2_regularization(parameters, weight: float) -> Tensor:
    """``weight * sum(||p||^2)`` over an iterable of parameters.

    Used by Ditto's proximal term and weight-decay-style penalties expressed
    in the loss (rather than in the optimizer).
    """
    total = None
    for param in parameters:
        term = (param * param).sum()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("no parameters supplied to l2_regularization")
    return total * weight


def accuracy(logits, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` (Tensor or ndarray) against labels."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=1)
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float((predictions == labels).mean())
