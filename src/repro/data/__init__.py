"""``repro.data`` — synthetic datasets, non-i.i.d. partitioners, augmentations.

Substitutes for CIFAR-10/100 and STL-10 in this offline reproduction; see
docs/reproduction.md ("Data") for the substitution and its evidence.
"""

from .augment import (
    ColorJitter,
    Compose,
    GaussianNoise,
    RandomCrop,
    RandomGrayscale,
    RandomHorizontalFlip,
    TwoViewAugment,
    default_ssl_augment,
)
from .loader import batch_iterator
from .partition import (
    partition_dirichlet,
    partition_iid,
    partition_quantity_label,
    stratified_split,
)
from .stats import (
    classes_per_client,
    client_label_matrix,
    effective_classes,
    heterogeneity_tv,
    label_histogram,
)
from .synthetic import (
    DataSplit,
    SyntheticImageDataset,
    make_cifar10_like,
    make_cifar100_like,
    make_stl10_like,
)

__all__ = [
    "DataSplit",
    "SyntheticImageDataset",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_stl10_like",
    "partition_iid",
    "partition_quantity_label",
    "partition_dirichlet",
    "stratified_split",
    "batch_iterator",
    "RandomCrop",
    "RandomHorizontalFlip",
    "ColorJitter",
    "RandomGrayscale",
    "GaussianNoise",
    "Compose",
    "TwoViewAugment",
    "default_ssl_augment",
    "label_histogram",
    "client_label_matrix",
    "classes_per_client",
    "heterogeneity_tv",
    "effective_classes",
]
