"""Trainable layers: Linear, Conv2d, BatchNorm, global pooling, flatten.

Layouts follow PyTorch conventions so the paper's model descriptions map
one-to-one: ``Linear.weight`` is (out, in), ``Conv2d.weight`` is
(out_ch, in_ch, kh, kw), images are NCHW.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
]


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        dtype = get_default_dtype()
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng=rng, gain=math.sqrt(2.0),
                                 dtype=dtype)
        )
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            # repro: allow[DET001] -- unseeded convenience fallback; federated paths always pass rng
            generator = rng if rng is not None else np.random.default_rng()
            self.bias = Parameter(generator.uniform(-bound, bound, out_features).astype(dtype))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution (cross-correlation) over NCHW inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        dtype = get_default_dtype()
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng=rng, dtype=dtype))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            bound = 1.0 / math.sqrt(fan_in)
            # repro: allow[DET001] -- unseeded convenience fallback; federated paths always pass rng
            generator = rng if rng is not None else np.random.default_rng()
            self.bias = Parameter(generator.uniform(-bound, bound, out_channels).astype(dtype))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class _BatchNorm(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        dtype = get_default_dtype()
        self.weight = Parameter(np.ones(num_features, dtype=dtype))
        self.bias = Parameter(np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        return F.batch_norm(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def _check_input(self, x: Tensor) -> None:
        raise NotImplementedError


class BatchNorm1d(_BatchNorm):
    """BatchNorm over (N, C) feature matrices (projection-head layers).

    In eval mode it also takes a (K, N, C) stack of K clients' batches and
    normalizes its last axis with the running statistics, elementwise as
    each (N, C) slice alone would be.
    """

    def _check_input(self, x: Tensor) -> None:
        stacked = x.ndim == 3 and not self.training
        if (x.ndim != 2 and not stacked) or x.shape[-1] != self.num_features:
            raise ValueError(f"BatchNorm1d expected (N, {self.num_features}), got {x.shape}")


class BatchNorm2d(_BatchNorm):
    """BatchNorm over (N, C, H, W) images."""

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}")


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    """Flatten the axes from ``start_dim`` on.

    A 5-D input is a (K, N, C, H, W) stack of K clients' image batches: its
    leading client axis is kept too, so each slice flattens as it would
    alone.
    """

    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim + 1 if x.ndim == 5 else self.start_dim)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
