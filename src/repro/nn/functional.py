"""Stateless neural-network operations built on the autograd engine.

Convolution and pooling are implemented with im2col/col2im so the heavy
lifting happens inside numpy matrix multiplies — the standard approach for
CPU-only frameworks.  Everything here is differentiable end-to-end; custom
backward closures are registered only for ops whose composite form would be
wasteful (conv2d, pooling), while the rest (softmax, layer/batch norm,
normalize) are compositions of :class:`~repro.nn.tensor.Tensor` primitives
so their gradients come for free.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "normalize",
    "linear",
    "dropout",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm",
    "one_hot",
    "pairwise_sq_distances",
    "cosine_similarity_matrix",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# ---------------------------------------------------------------------------
# Elementwise / rowwise composites
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


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


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity at eval time."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    if getattr(x, "_trace", None) is not None:
        from .trace import UntraceableError

        raise UntraceableError(
            "dropout with p > 0 draws a fresh mask per client and cannot be "
            "recorded for batched replay")
    # repro: allow[DET001] -- unseeded convenience fallback; federated paths always pass rng
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


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
# im2col / col2im
# ---------------------------------------------------------------------------

def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding windows: (N, C, H, W) -> (N, C, kh, kw, Ho, Wo)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv/pool output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}"
        )
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ns, cs, hs, ws = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, kh, kw, ho, wo),
        strides=(ns, cs, hs, ws, hs * sh, ws * sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows), (ho, wo)


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add sliding windows back: inverse of :func:`_im2col`."""
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho, wo = cols.shape[4], cols.shape[5]
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += cols[:, :, i, j]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


# ---------------------------------------------------------------------------
# Convolution
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
    x = as_tensor(x)
    stride_hw = _pair(stride)
    padding_hw = _pair(padding)
    n, c_in, _, _ = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")

    cols, (ho, wo) = _im2col(x.data, (kh, kw), stride_hw, padding_hw)
    cols_mat = cols.reshape(n, c_in * kh * kw, ho * wo)
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    out_data = np.einsum("ok,nkp->nop", w_mat, cols_mat, optimize=True)
    out_data = out_data.reshape(n, c_out, ho, wo)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_output(out_data, parents)
    if out.requires_grad:

        def _backward():
            grad = out.grad.reshape(n, c_out, ho * wo)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2)))
            if weight.requires_grad:
                grad_w = np.einsum("nop,nkp->ok", grad, cols_mat, optimize=True)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = np.einsum("ok,nop->nkp", w_mat, grad, optimize=True)
                grad_cols = grad_cols.reshape(n, c_in, kh, kw, ho, wo)
                x._accumulate(_col2im(grad_cols, x.shape, (kh, kw), stride_hw, padding_hw))

        out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Max pooling over (N, C, H, W)."""
    kernel = _pair(kernel_size)
    stride_hw = _pair(stride) if stride is not None else kernel
    padding_hw = _pair(padding)
    cols, (ho, wo) = _im2col(x.data, kernel, stride_hw, padding_hw)
    n, c = x.shape[0], x.shape[1]
    flat = cols.reshape(n, c, kernel[0] * kernel[1], ho, wo)
    arg = flat.argmax(axis=2)
    out_data = np.take_along_axis(flat, arg[:, :, None], axis=2).squeeze(2)

    out = x._make_output(out_data, (x,))
    if out.requires_grad:

        def _backward():
            grad_flat = np.zeros_like(flat)
            np.put_along_axis(grad_flat, arg[:, :, None], out.grad[:, :, None], axis=2)
            grad_cols = grad_flat.reshape(n, c, kernel[0], kernel[1], ho, wo)
            x._accumulate(_col2im(grad_cols, x.shape, kernel, stride_hw, padding_hw))

        out._backward = _backward
    return out


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Average pooling over (N, C, H, W)."""
    kernel = _pair(kernel_size)
    stride_hw = _pair(stride) if stride is not None else kernel
    padding_hw = _pair(padding)
    cols, (ho, wo) = _im2col(x.data, kernel, stride_hw, padding_hw)
    n, c = x.shape[0], x.shape[1]
    window = kernel[0] * kernel[1]
    out_data = cols.reshape(n, c, window, ho, wo).mean(axis=2)

    out = x._make_output(out_data, (x,))
    if out.requires_grad:

        def _backward():
            spread = np.broadcast_to(
                out.grad[:, :, None, None] / window,
                (n, c, kernel[0], kernel[1], ho, wo),
            ).astype(out.grad.dtype)
            x._accumulate(_col2im(spread, x.shape, kernel, stride_hw, padding_hw))

        out._backward = _backward
    return out


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

    trace = getattr(x, "_trace", None)
    if training:
        batch_mean = x.data.mean(axis=axes)
        batch_var = x.data.var(axis=axes)
        count = x.data.size // x.data.shape[1]
        unbiased = batch_var * (count / max(count - 1, 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * batch_mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
        if trace is not None:
            # The buffer update is a per-client side effect; record it so
            # batched replay applies it to K stacked buffer rows (the eager
            # update above only touched the throwaway template buffers).
            trace.record_bn_update(x, running_mean, running_var, axes,
                                   momentum, count / max(count - 1, 1))
        mean_t = x.mean(axis=axes, keepdims=True)
        var_t = x.var(axis=axes, keepdims=True)
        x_hat = (x - mean_t) / (var_t + eps).sqrt()
    else:
        if trace is not None:
            from .trace import UntraceableError

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


def cosine_similarity_matrix(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Cosine similarity between rows of ``a`` (n,d) and ``b`` (m,d)."""
    return normalize(a, axis=1, eps=eps) @ normalize(b, axis=1, eps=eps).transpose()
