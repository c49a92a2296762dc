"""KMeans clustering with k-means++ seeding.

Calibre's prototype generation (paper §IV-B, Algorithm 1 line 13) clusters a
batch of encodings with KMeans to produce pseudo-labels; the per-cluster
means become the prototypes.  sklearn is unavailable offline, so this is a
self-contained numpy implementation with the features the algorithm needs:

* k-means++ initialization for stable prototypes on small batches;
* empty-cluster reseeding (tiny SSL batches often under-fill clusters);
* deterministic behaviour under an explicit RNG, with no tuning options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["KMeansResult", "kmeans_plus_plus_init", "kmeans"]

_MAX_ITERATIONS = 100
_TOLERANCE = 1e-6  # converged once the centers move less (Frobenius norm)


@dataclass
class KMeansResult:
    """Outcome of a KMeans run."""

    centers: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    inertia: float  # sum of squared distances to assigned centers
    iterations: int
    converged: bool


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances."""
    p_sq = (points**2).sum(axis=1, keepdims=True)
    c_sq = (centers**2).sum(axis=1)
    cross = points @ centers.T
    return np.maximum(p_sq + c_sq - 2.0 * cross, 0.0)


def kmeans_plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = rng.integers(0, n)
    centers[0] = points[first]
    closest = _squared_distances(points, centers[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 1e-12:
            # All points coincide with chosen centers; fill with random picks.
            centers[j] = points[rng.integers(0, n)]
            continue
        probabilities = closest / total
        choice = rng.choice(n, p=probabilities)
        centers[j] = points[choice]
        new_dist = _squared_distances(points, centers[j : j + 1]).ravel()
        closest = np.minimum(closest, new_dist)
    return centers


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
) -> KMeansResult:
    """Lloyd's algorithm from a k-means++ seeding.

    ``k`` is clamped to the number of distinct points if necessary; callers
    (prototype generation on small batches) rely on that behaviour instead
    of crashing mid-training.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got {points.shape}")
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty point set")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    rng = rng if rng is not None else np.random.default_rng()

    centers = kmeans_plus_plus_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    converged = False
    iterations = 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        iterations = iteration
        distances = _squared_distances(points, centers)
        labels = distances.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = points[labels == j]
            if members.shape[0] == 0:
                # Reseed an empty cluster at the point farthest from its center.
                farthest = distances.min(axis=1).argmax()
                new_centers[j] = points[farthest]
            else:
                new_centers[j] = members.mean(axis=0)
        shift = float(np.linalg.norm(new_centers - centers))
        centers = new_centers
        if shift < _TOLERANCE:
            converged = True
            break
    distances = _squared_distances(points, centers)
    labels = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), labels].sum())
    return KMeansResult(centers=centers, labels=labels, inertia=inertia,
                        iterations=iterations, converged=converged)

