"""Stateless neural-network operations built on the autograd engine.

Convolution is one op table entry (:mod:`repro.nn.ops`, im2col so the heavy
lifting happens inside numpy matrix multiplies — the standard approach for
CPU-only frameworks), as is batch norm's running-statistics update.  The
rest (log-softmax, batch normalization, normalize, distances) are
compositions of :class:`~repro.nn.tensor.Tensor` primitives, so their
gradients, recording and batched replay come from the table too.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, apply, as_tensor
from .trace import UntraceableError

__all__ = [
    "log_softmax",
    "normalize",
    "linear",
    "conv2d",
    "global_avg_pool2d",
    "batch_norm",
    "one_hot",
    "pairwise_sq_distances",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# ---------------------------------------------------------------------------
# Elementwise / rowwise composites
# ---------------------------------------------------------------------------

def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalize along ``axis`` (as used by every SSL projection head)."""
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
    return x / (norm + eps)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Dense one-hot encoding of an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


# ---------------------------------------------------------------------------
# Convolution and global pooling
# ---------------------------------------------------------------------------

def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation, matching ``torch.nn.functional.conv2d``.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.
    """
    operands = (as_tensor(x), weight) if bias is None else (as_tensor(x), weight, bias)
    return apply("conv2d", *operands, stride=_pair(stride), padding=_pair(padding))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Collapse spatial dims by averaging: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, C) or (N, C, H, W) inputs.

    Running statistics are updated in place when ``training`` is True, so
    callers (the :class:`~repro.nn.layers.BatchNorm2d` module) own the
    buffers and FL code can ship them alongside weights.  Eval mode also
    takes a (K, N, C) stack of K clients' batches, normalized over its
    last axis.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        view = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        view = (1, -1)
    elif x.ndim == 3 and not training:
        view = (1, 1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input (or 3-D in "
                         f"eval mode), got shape {x.shape}")

    if training:
        count = x.data.size // x.data.shape[1]
        apply("bn_update", x, running_mean=running_mean, running_var=running_var,
              axes=axes, momentum=momentum, count_scale=count / max(count - 1, 1))
        mean_t = x.mean(axis=axes, keepdims=True)
        var_t = x.var(axis=axes, keepdims=True)
        x_hat = (x - mean_t) / (var_t + eps).sqrt()
    else:
        if getattr(x, "_trace", None) is not None:
            raise UntraceableError(
                "eval-mode batch_norm reads per-client running statistics "
                "and cannot be recorded for batched replay")
        mean = running_mean.reshape(view)
        var = running_var.reshape(view)
        x_hat = (x - Tensor(mean, dtype=x.data.dtype)) / Tensor(
            np.sqrt(var + eps), dtype=x.data.dtype
        )
    return x_hat * gamma.reshape(view) + beta.reshape(view)


# ---------------------------------------------------------------------------
# Distance helpers shared by prototype losses and clustering
# ---------------------------------------------------------------------------

def pairwise_sq_distances(a: Tensor, b: Tensor) -> Tensor:
    """Squared Euclidean distances between rows of ``a`` (n,d) and ``b`` (m,d)."""
    a_sq = (a * a).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=1, keepdims=True).transpose()
    cross = a @ b.transpose()
    dist = a_sq + b_sq - 2.0 * cross
    return dist.clip(low=0.0)
