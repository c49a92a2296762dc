"""Fully-connected encoders.

An MLP encoder over flattened images keeps every algorithmic code path of
the conv encoders (feature extraction, SSL heads, prototypes) while running
an order of magnitude faster, which matters for the full Fig. 3/4 method
sweeps in pure numpy.  The substitution is recorded in
docs/reproduction.md ("Encoder").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .layers import BatchNorm1d, Flatten, Linear, ReLU
from .module import Module, Sequential
from .tensor import Tensor

__all__ = ["MLPEncoder", "MLPClassifier"]


class MLPEncoder(Module):
    """Flatten -> [Linear -> BN -> ReLU] x L encoder with ``feature_dim``."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int] = (128, 64),
        batch_norm: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if not hidden_dims:
            raise ValueError("MLPEncoder needs at least one hidden layer")
        layers = [Flatten(start_dim=1)]
        previous = input_dim
        for width in hidden_dims:
            layers.append(Linear(previous, width, rng=rng))
            if batch_norm:
                layers.append(BatchNorm1d(width))
            layers.append(ReLU())
            previous = width
        self.net = Sequential(*layers)
        self.feature_dim = previous
        self.input_dim = input_dim

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class MLPClassifier(Module):
    """Encoder + linear head as one module (Script baselines train this)."""

    def __init__(self, encoder: Module, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.encoder = encoder
        self.head = Linear(encoder.feature_dim, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.encoder(x))
