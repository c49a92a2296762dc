"""Synthetic class-conditional image datasets.

The paper evaluates on CIFAR-10, CIFAR-100, and STL-10.  None of these can
be downloaded in this offline environment, so we substitute generative
equivalents that preserve the two properties every experiment in the paper
relies on (docs/reproduction.md, "Data"):

1. **Class structure** — each class has a distinct latent prototype, so a
   supervised classifier (and a linear probe over good features) can
   separate classes.
2. **Augmentation-invariant nuisances** — samples vary by position, color
   gain/bias, background, and pixel noise; the SSL augmentations (crop,
   flip, jitter) operate on exactly these factors, so SSL pretraining can
   learn class-relevant invariant features without labels.

Prototypes are smooth random fields (white noise passed through a periodic
Gaussian filter, scipy's ``gaussian_filter`` reproduced bit for bit in
numpy), which gives them CIFAR-like spatial autocorrelation.  CIFAR-100's
coarse/fine hierarchy is mimicked by drawing fine-class prototypes around
superclass anchors.  STL-10's 100k-sample unlabeled split becomes an
unlabeled pool drawn from the same generative process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DataSplit",
    "SyntheticImageDataset",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_stl10_like",
]


@dataclass
class DataSplit:
    """A bundle of images (N, C, H, W) and integer labels (N,).

    Unlabeled samples carry label ``-1`` (STL-10's unlabeled split).
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {self.images.shape}")
        if self.labels.shape[0] != self.images.shape[0]:
            raise ValueError("labels and images must agree on N")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices: np.ndarray) -> "DataSplit":
        indices = np.asarray(indices)
        return DataSplit(self.images[indices], self.labels[indices])

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0

    @property
    def nbytes(self) -> int:
        return int(self.images.nbytes) + int(self.labels.nbytes)

    def materialize(self) -> "DataSplit":
        """Already in-process; mirrors ``DataSplitHandle.materialize``."""
        return self


def _gaussian_wrap(field: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(field, (0, sigma, sigma), mode="wrap")``,
    bit for bit, in numpy alone.

    Axis 1, then axis 2, is correlated with the normalized kernel
    ``exp(-k^2 / 2 sigma^2)``, ``k = -r..r`` with ``r = int(4 sigma + 0.5)``,
    over a periodic extension, so a radius at or above the axis length wraps
    more than once.
    """
    if sigma <= 1e-15:  # scipy skips the axis: the identity
        return field
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    for axis in (1, 2):
        field = _correlate_wrap(field, weights, axis)
    return field


def _correlate_wrap(field: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``field`` along ``axis`` with the symmetric odd-length
    ``weights`` under periodic boundaries.

    The sum runs in scipy's symmetric-kernel order: the centre tap, then
    each pair of taps from the outermost in.  Any other order rounds
    differently and changes every dataset byte downstream.
    """
    radius = weights.size // 2
    size = field.shape[axis]
    padded = np.take(field, np.arange(-radius, size + radius) % size, axis=axis)
    lead = (slice(None),) * axis

    def shifted(offset: int) -> np.ndarray:  # element i reads field[i + offset]
        return padded[lead + (slice(radius + offset, radius + offset + size),)]

    out = shifted(0) * weights[radius]
    for offset in range(radius, 0, -1):
        out = out + (shifted(-offset) + shifted(offset)) * weights[radius + offset]
    return out


def _smooth_field(rng: np.random.Generator, channels: int, size: int, sigma: float) -> np.ndarray:
    """A unit-variance smooth random field with CIFAR-like autocorrelation."""
    noise = rng.standard_normal((channels, size, size))
    smoothed = _gaussian_wrap(noise, sigma)
    std = smoothed.std()
    if std < 1e-12:
        return smoothed
    return smoothed / std


class SyntheticImageDataset:
    """Class-conditional generator producing train/test/unlabeled splits.

    Parameters
    ----------
    num_classes:
        Number of classes ``K``.
    image_size:
        Height = width of the square RGB images.
    train_per_class / test_per_class:
        Samples per class in the labeled splits (balanced globally; the
        non-i.i.d. partitioners create per-client imbalance downstream).
    unlabeled_size:
        Extra unlabeled samples (class labels drawn uniformly but hidden),
        reproducing STL-10's unlabeled split.
    class_sep:
        Scale of the class prototype relative to nuisance variation; larger
        values give cleaner class structure.
    noise_level:
        Standard deviation of additive pixel noise.
    shift_range / color_jitter:
        Largest per-sample roll in pixels, and the half-width of the
        per-channel gain and bias draws.
    smoothness:
        Gaussian filter sigma of the prototypes, in pixels; 0 leaves them
        white noise.
    num_superclasses:
        When set, fine-class prototypes are drawn around superclass anchors
        (CIFAR-100's coarse/fine hierarchy).
    seed:
        Seeds the entire generative process (prototypes + samples).

    Counts below 1 (``train_per_class``, ``channels``) and negative sizes
    or scales raise ``ValueError`` naming the field.
    """

    def __init__(
        self,
        num_classes: int = 10,
        image_size: int = 16,
        train_per_class: int = 100,
        test_per_class: int = 20,
        unlabeled_size: int = 0,
        class_sep: float = 2.0,
        noise_level: float = 0.35,
        shift_range: int = 3,
        color_jitter: float = 0.35,
        smoothness: float = 2.0,
        num_superclasses: Optional[int] = None,
        channels: int = 3,
        seed: int = 0,
        name: str = "synthetic",
    ):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if image_size < 4:
            raise ValueError("image_size must be >= 4")
        if num_superclasses is not None and num_classes % num_superclasses != 0:
            raise ValueError(f"num_classes={num_classes} must be divisible by "
                             f"num_superclasses={num_superclasses}")
        for field_name, value in (("train_per_class", train_per_class), ("channels", channels)):
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")
        for field_name, value in (
            ("test_per_class", test_per_class), ("unlabeled_size", unlabeled_size),
            ("class_sep", class_sep), ("noise_level", noise_level),
            ("shift_range", shift_range), ("color_jitter", color_jitter),
            ("smoothness", smoothness),
        ):
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.class_sep = class_sep
        self.noise_level = noise_level
        self.shift_range = shift_range
        self.color_jitter = color_jitter
        self.smoothness = smoothness
        self.seed = seed
        self.name = name

        rng = np.random.default_rng(seed)
        self._prototypes = self._build_prototypes(rng, num_superclasses)

        train_labels = np.repeat(np.arange(num_classes), train_per_class)
        test_labels = np.repeat(np.arange(num_classes), test_per_class)
        rng.shuffle(train_labels)
        rng.shuffle(test_labels)
        self.train = DataSplit(self._render(train_labels, rng), train_labels)
        self.test = DataSplit(self._render(test_labels, rng), test_labels)
        if unlabeled_size > 0:
            hidden = rng.integers(0, num_classes, size=unlabeled_size)
            self.unlabeled = DataSplit(
                self._render(hidden, rng), np.full(unlabeled_size, -1, dtype=np.int64)
            )
        else:
            self.unlabeled = DataSplit(
                np.zeros((0, channels, image_size, image_size)), np.zeros(0, dtype=np.int64)
            )

    # ------------------------------------------------------------------
    def _build_prototypes(self, rng: np.random.Generator,
                          num_superclasses: Optional[int]) -> np.ndarray:
        shape = (self.num_classes, self.channels, self.image_size, self.image_size)
        prototypes = np.zeros(shape)
        if num_superclasses is None:
            for k in range(self.num_classes):
                prototypes[k] = _smooth_field(rng, self.channels, self.image_size, self.smoothness)
        else:
            per_super = self.num_classes // num_superclasses
            for s in range(num_superclasses):
                anchor = _smooth_field(rng, self.channels, self.image_size, self.smoothness)
                for f in range(per_super):
                    fine = _smooth_field(rng, self.channels, self.image_size, self.smoothness)
                    blended = 0.7 * anchor + 0.5 * fine
                    prototypes[s * per_super + f] = blended / max(blended.std(), 1e-12)
        return prototypes * self.class_sep

    def _render(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Render one image per label through the nuisance pipeline."""
        count = labels.shape[0]
        shape = (count, self.channels, self.image_size, self.image_size)
        shifts = rng.integers(-self.shift_range, self.shift_range + 1, size=(count, 2))
        gains = 1.0 + self.color_jitter * rng.uniform(-1.0, 1.0, size=(count, self.channels, 1, 1))
        biases = self.color_jitter * rng.uniform(-1.0, 1.0, size=(count, self.channels, 1, 1))
        noise = self.noise_level * rng.standard_normal(shape)
        # Each prototype rolled by its sample's (dy, dx), as one gather:
        # pixel (y, x) reads the prototype at ((y - dy) mod H, (x - dx) mod W).
        pixels = np.arange(self.image_size)
        rows = (pixels - shifts[:, :1]) % self.image_size
        cols = (pixels - shifts[:, 1:]) % self.image_size
        images = self._prototypes[
            (labels % self.num_classes)[:, None, None, None],
            np.arange(self.channels)[None, :, None, None],
            rows[:, None, :, None],
            cols[:, None, None, :],
        ]
        images = images * gains + biases + noise
        return images

    def sample(self, labels: np.ndarray, seed: int) -> DataSplit:
        """Render a fresh split for the given labels (novel-client data)."""
        labels = np.asarray(labels, dtype=np.int64)
        rng = np.random.default_rng(seed)
        return DataSplit(self._render(labels, rng), labels)

    def __repr__(self) -> str:
        return (
            f"SyntheticImageDataset(name={self.name!r}, K={self.num_classes}, "
            f"size={self.image_size}, train={len(self.train)}, test={len(self.test)}, "
            f"unlabeled={len(self.unlabeled)})"
        )


def make_cifar10_like(
    image_size: int = 16,
    train_per_class: int = 120,
    test_per_class: int = 30,
    seed: int = 0,
    **overrides,
) -> SyntheticImageDataset:
    """CIFAR-10 equivalent: 10 classes, fully labeled."""
    return SyntheticImageDataset(
        num_classes=10,
        image_size=image_size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        seed=seed,
        name="cifar10-like",
        **overrides,
    )


def make_cifar100_like(
    image_size: int = 16,
    train_per_class: int = 24,
    test_per_class: int = 8,
    num_classes: int = 100,
    seed: int = 0,
    **overrides,
) -> SyntheticImageDataset:
    """CIFAR-100 equivalent: 100 fine classes around 20 superclass anchors.

    ``num_superclasses`` defaults to ``max(num_classes // 5, 1)``; a class
    count that default does not divide needs it passed explicitly.
    """
    if "num_superclasses" in overrides:
        num_superclasses = overrides.pop("num_superclasses")
    else:
        num_superclasses = max(num_classes // 5, 1)
        if num_classes % num_superclasses:
            raise ValueError(
                f"num_classes={num_classes} is not divisible by the default "
                f"num_superclasses={num_superclasses} "
                "(max(num_classes // 5, 1)); pass num_superclasses explicitly")
    return SyntheticImageDataset(
        num_classes=num_classes,
        image_size=image_size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        num_superclasses=num_superclasses,
        seed=seed,
        name="cifar100-like",
        **overrides,
    )


def make_stl10_like(
    image_size: int = 16,
    train_per_class: int = 50,
    test_per_class: int = 20,
    unlabeled_size: int = 1000,
    seed: int = 0,
    **overrides,
) -> SyntheticImageDataset:
    """STL-10 equivalent: 10 classes, few labeled samples, large unlabeled pool.

    The paper stresses that Calibre "is able to sufficiently learn from a
    large number of unlabeled samples in STL-10 while other methods cannot";
    the unlabeled pool feeds only the SSL training stage here too.
    """
    return SyntheticImageDataset(
        num_classes=10,
        image_size=image_size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        unlabeled_size=unlabeled_size,
        seed=seed,
        name="stl10-like",
        **overrides,
    )
