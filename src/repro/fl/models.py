"""Model containers used by the supervised FL baselines.

``ClassifierModel`` is the paper's supervised architecture: the fully
convolutional ``Encoder`` (θ_b) plus the linear-classifier ``Head``.  Its
state-dict names are prefixed ``encoder.``/``head.``, so a body/head
algorithm names the part that travels by its prefix
(``SupervisedFL.shared_part``) and keeps the other part on the client.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..nn import Linear, Module
from ..nn.tensor import Tensor, no_grad

__all__ = ["ClassifierModel", "ENCODER_PREFIX", "HEAD_PREFIX"]

ENCODER_PREFIX = "encoder"
HEAD_PREFIX = "head"


class ClassifierModel(Module):
    """Encoder + linear head; ``forward`` returns logits."""

    def __init__(self, encoder_factory: Callable[[], Module], num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.encoder = encoder_factory()
        if not hasattr(self.encoder, "feature_dim"):
            raise ValueError("encoder must expose feature_dim")
        self.head = Linear(self.encoder.feature_dim, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.encoder(x))

    def features(self, images: np.ndarray) -> np.ndarray:
        """Frozen encoder features (eval mode, no grad)."""
        was_training = self.training
        self.eval()
        with no_grad():
            out = self.encoder(Tensor(images)).data.copy()
        if was_training:
            self.train()
        return out

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Logits in eval mode (no grad)."""
        was_training = self.training
        self.eval()
        with no_grad():
            out = self.forward(Tensor(images)).data.copy()
        if was_training:
            self.train()
        return out
