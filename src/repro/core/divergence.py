"""Divergence-aware server aggregation (paper §IV, contribution 2).

"Each client then computes the average distance between its samples and
their corresponding prototypes.  Such average distance can be effectively
used to measure the local divergence rate, which acts as a weighting factor
during the server aggregation."

The paper does not spell out the functional form of the weighting, so this
module implements the natural reading — clients whose representations sit
*closer* to their prototypes (lower divergence = cleaner local cluster
structure) contribute more to the aggregate — and records the choice:

    weight_c  ∝  n_c · exp(-η · d_c / mean(d))        (mode="softmax")
    weight_c  ∝  n_c / (ε + d_c / mean(d))            (mode="inverse")

Both reduce to plain FedAvg when all divergences are equal; η (temperature)
controls how aggressively divergent clients are down-weighted.  The
choice is recorded in docs/reproduction.md ("Divergence weighting") and
exercised by the ablation benchmark.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["DIVERGENCE_MODES", "divergence_weights"]

DIVERGENCE_MODES = ("softmax", "inverse")
"""The weighting forms :func:`divergence_weights` implements."""


def divergence_weights(
    sample_counts: Sequence[float],
    divergences: Sequence[float],
    temperature: float = 1.0,
    mode: str = "softmax",
    eps: float = 1e-8,
) -> np.ndarray:
    """Aggregation weights from client sample counts and divergence rates.

    Returns weights normalized to sum to 1.  Non-finite or negative
    divergences are rejected; all-zero divergences degrade gracefully to
    sample-count (FedAvg) weighting.
    """
    counts = np.asarray(sample_counts, dtype=np.float64)
    divs = np.asarray(divergences, dtype=np.float64)
    if counts.shape != divs.shape:
        raise ValueError("sample_counts and divergences must align")
    if counts.size == 0:
        raise ValueError("need at least one client")
    if np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    if np.any(~np.isfinite(divs)) or np.any(divs < 0):
        raise ValueError("divergences must be finite and non-negative")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")

    mean_div = divs.mean()
    if mean_div <= eps:
        weights = counts.copy()
    else:
        normalized = divs / mean_div
        if mode == "softmax":
            weights = counts * np.exp(-temperature * normalized)
        elif mode == "inverse":
            weights = counts / (eps + normalized * max(temperature, eps))
        else:
            raise ValueError(f"unknown divergence weighting mode '{mode}'")
    total = weights.sum()
    if total <= 0:
        raise ValueError("degenerate divergence weights")
    return weights / total
