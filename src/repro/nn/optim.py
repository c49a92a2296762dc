"""Optimizers.

The paper trains SSL encoders with SGD and personalizes heads with SGD
(lr 0.05); FedEMA and MoCo-style methods need momentum updates that live
outside the optimizer (see :mod:`repro.ssl.ema`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .module import Parameter

__all__ = [
    "Optimizer",
    "SGD",
    "BatchedSGD",
]


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with momentum and weight decay added to the gradient."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = np.zeros_like(param.data)
                velocity = self._velocity[index]
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class BatchedSGD(SGD):
    """SGD over client-batched parameter tensors (leading client axis).

    Every update rule in :class:`SGD` is elementwise over the parameter
    array, so running it on ``(K, *shape)`` tensors updates K independent
    per-client parameter copies — and the lazily allocated velocity buffers
    become ``(K, *shape)`` vectorized per-client momentum state — with
    slice ``k`` bitwise identical to a per-client :class:`SGD` step.  This
    subclass only adds the client-axis contract check.
    """

    def __init__(self, parameters, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, num_clients: Optional[int] = None):
        super().__init__(parameters, lr, momentum=momentum,
                         weight_decay=weight_decay)
        if num_clients is not None:
            for param in self.parameters:
                if param.data.ndim < 1 or param.data.shape[0] != num_clients:
                    raise ValueError(
                        f"batched parameter has shape {param.data.shape}; "
                        f"expected a leading client axis of {num_clients}")
        self.num_clients = num_clients
