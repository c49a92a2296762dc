"""``repro.core`` — Calibre, the paper's primary contribution.

Prototype generation (KMeans pseudo-labels over both augmented views), the
three prototype loss terms of Algorithm 1, divergence-aware aggregation,
and the :class:`Calibre` federated algorithm wrapping any SSL method.
"""

from ..fl.client import derive_rng
from .calibre import Calibre
from .divergence import divergence_weights
from .losses import classification_term, contrastive_term, meta_term, prototype_plan
from .prototypes import ViewClusters, average_prototype_distance, cluster_views

__all__ = [
    "Calibre",
    "derive_rng",
    "divergence_weights",
    "prototype_plan",
    "classification_term",
    "meta_term",
    "contrastive_term",
    "ViewClusters",
    "cluster_views",
    "average_prototype_distance",
]
