"""Prototype generation for Calibre (paper §IV-B, Algorithm 1).

Calibre "generates pseudo labels through a straightforward clustering
algorithm, such as KMeans, thereby the prototype vector for the k-th
cluster is calculated as the average of encodings assigned to this group."

Clustering runs on the *detached* encodings of both augmented views
(Algorithm 1 line 13: ``Kr = KMeans(z), z = [z_{2i-1}, z_{2i}]``); the
prototype tensors themselves are *differentiable* means so the regularizer
gradients flow back into the encoder through both the samples and their
prototypes.

The means split like Calibre's losses: :func:`cluster_membership` derives
a view's one-hot memberships, counts and fallback mask from its labels on
raw arrays, and :func:`prototype_means` is the traceable arithmetic over
them (see :mod:`repro.core.losses`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..cluster import kmeans
from ..nn.tensor import Tensor

__all__ = ["ViewClusters", "cluster_views", "cluster_membership",
           "prototype_means", "average_prototype_distance"]


@dataclass
class ViewClusters:
    """KMeans pseudo-labels over the two views of a batch.

    ``centers`` are the (K, d) KMeans centroids (constants); ``labels_e``
    and ``labels_o`` assign each view's samples to clusters.
    """

    centers: np.ndarray
    labels_e: np.ndarray
    labels_o: np.ndarray

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]


def cluster_views(
    z_e: Tensor,
    z_o: Tensor,
    num_clusters: int,
    rng: Optional[np.random.Generator] = None,
) -> ViewClusters:
    """KMeans over the concatenated (detached) encodings of both views."""
    if z_e.shape != z_o.shape:
        raise ValueError(f"view encodings disagree: {z_e.shape} vs {z_o.shape}")
    combined = np.concatenate([z_e.data, z_o.data], axis=0)
    result = kmeans(combined, num_clusters, rng=rng)
    n = z_e.shape[0]
    return ViewClusters(
        centers=result.centers,
        labels_e=result.labels[:n],
        labels_o=result.labels[n:],
    )


def cluster_membership(
    assignments: np.ndarray, num_clusters: int, dtype,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One view's cluster bookkeeping, on raw arrays.

    Returns the (N, K) one-hot memberships, the (K, 1) member counts with
    empty clusters counted as one (a safe divisor), and a (K, 1) mask that
    is 0 on empty clusters — ``None`` when no cluster is empty, so no
    fallback blend is needed.
    """
    membership = np.zeros((assignments.shape[0], num_clusters), dtype=dtype)
    membership[np.arange(assignments.shape[0]), assignments] = 1.0
    counts = membership.sum(axis=0)
    empty = counts == 0
    safe_counts = np.where(empty, 1.0, counts).reshape(-1, 1)
    mask = None
    if np.any(empty):
        mask = np.where(empty, 0.0, 1.0).reshape(-1, 1).astype(dtype)
    return membership, safe_counts, mask


def prototype_means(
    features: Tensor, membership: Tensor, counts: Tensor,
    mask: Optional[Tensor] = None, fallback: Optional[Tensor] = None,
) -> Tensor:
    """Per-cluster means of ``features`` as a differentiable (K, d) tensor.

    The other arguments are tensors of :func:`cluster_membership`'s arrays
    (trace inputs when recording).  With a ``mask``, empty clusters take
    their ``fallback`` rows (small non-i.i.d. batches under-fill clusters).
    """
    prototypes = (membership.transpose() @ features) / counts  # (K, d)
    if mask is not None:
        prototypes = prototypes * mask + fallback * (1.0 - mask)
    return prototypes


def average_prototype_distance(z: Tensor, clusters: ViewClusters) -> float:
    """Mean Euclidean distance between encodings and their assigned KMeans
    centers — the paper's *local divergence rate* reported to the server.
    ``z`` holds both views' encodings, view e first."""
    labels = np.concatenate([clusters.labels_e, clusters.labels_o])
    if labels.shape[0] != z.shape[0]:
        raise ValueError(f"{z.shape[0]} encodings for {labels.shape[0]} "
                         "cluster labels; pass both views' encodings")
    assigned = clusters.centers[labels]
    return float(np.linalg.norm(z.data - assigned, axis=1).mean())
