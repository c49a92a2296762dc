"""Stochastic image augmentations and the SSL two-view pipeline.

These operate on numpy batches shaped (N, C, H, W).  The SimCLR family
defines its objective over two augmented *views* of each input; the
:class:`TwoViewAugment` wrapper produces the (x-hat_{2i-1}, x-hat_{2i})
pairs of Algorithm 1 in the paper.

Augmentations mirror the nuisance factors of the synthetic datasets
(translation, color gain/bias, noise), which is what makes SSL pretraining
informative here: invariance to these transforms is exactly invariance to
the generative nuisances.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "RandomCrop",
    "RandomHorizontalFlip",
    "ColorJitter",
    "RandomGrayscale",
    "GaussianNoise",
    "Compose",
    "TwoViewAugment",
    "default_ssl_augment",
]


class Augmentation:
    """Base class: subclasses implement __call__(batch, rng) -> batch."""

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class RandomCrop(Augmentation):
    """Pad (reflect) then crop back to the original size at a random offset."""

    def __init__(self, padding: int = 2):
        if padding < 1:
            raise ValueError("padding must be >= 1")
        self.padding = padding

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, c, h, w = batch.shape
        p = self.padding
        padded = np.pad(batch, ((0, 0), (0, 0), (p, p), (p, p)), mode="reflect")
        out = np.empty_like(batch)
        offsets = rng.integers(0, 2 * p + 1, size=(n, 2))
        for i in range(n):
            dy, dx = offsets[i]
            out[i] = padded[i, :, dy : dy + h, dx : dx + w]
        return out


class RandomHorizontalFlip(Augmentation):
    def __init__(self, p: float = 0.5):
        self.p = p

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flips = rng.random(batch.shape[0]) < self.p
        out = batch.copy()
        out[flips] = out[flips, :, :, ::-1]
        return out


class ColorJitter(Augmentation):
    """Per-sample channel gain and bias plus global brightness/contrast."""

    def __init__(self, strength: float = 0.4):
        if strength < 0:
            raise ValueError("strength must be non-negative")
        self.strength = strength

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, c, _, _ = batch.shape
        s = self.strength
        gains = 1.0 + s * rng.uniform(-1.0, 1.0, size=(n, c, 1, 1))
        biases = s * rng.uniform(-1.0, 1.0, size=(n, c, 1, 1))
        contrast = 1.0 + s * rng.uniform(-1.0, 1.0, size=(n, 1, 1, 1))
        mean = batch.mean(axis=(1, 2, 3), keepdims=True)
        return (batch - mean) * contrast + mean * gains + biases


class RandomGrayscale(Augmentation):
    """With probability p, replace all channels by their mean."""

    def __init__(self, p: float = 0.2):
        self.p = p

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = batch.copy()
        chosen = rng.random(batch.shape[0]) < self.p
        if np.any(chosen):
            gray = out[chosen].mean(axis=1, keepdims=True)
            out[chosen] = np.broadcast_to(gray, out[chosen].shape)
        return out


class GaussianNoise(Augmentation):
    def __init__(self, sigma: float = 0.05):
        self.sigma = sigma

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return batch + self.sigma * rng.standard_normal(batch.shape)


class Compose(Augmentation):
    def __init__(self, transforms: Sequence[Augmentation]):
        self.transforms = list(transforms)

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in self.transforms:
            batch = transform(batch, rng)
        return batch


class TwoViewAugment:
    """Produce the two independent augmented views used by SSL objectives.

    Returns ``(view_e, view_o)`` matching the paper's I_e = {x-hat_{2i-1}}
    and I_o = {x-hat_{2i}} notation.
    """

    def __init__(self, augment: Augmentation):
        self.augment = augment

    def __call__(self, batch: np.ndarray, rng: np.random.Generator
                 ) -> Tuple[np.ndarray, np.ndarray]:
        return self.augment(batch, rng), self.augment(batch, rng)


def default_ssl_augment(strength: float = 0.4, crop_padding: int = 2,
                        noise_sigma: float = 0.05) -> TwoViewAugment:
    """The SimCLR-style augmentation stack used by all SSL methods here."""
    return TwoViewAugment(
        Compose(
            [
                RandomCrop(crop_padding),
                RandomHorizontalFlip(0.5),
                ColorJitter(strength),
                RandomGrayscale(0.2),
                GaussianNoise(noise_sigma),
            ]
        )
    )
