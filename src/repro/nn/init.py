"""Weight initialization (Kaiming-uniform) with explicit RNG plumbing.

Every initializer takes a ``numpy.random.Generator`` so that federated
experiments are reproducible: the server seeds one generator, builds the
global model once, and every client starts from the same bytes.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "kaiming_uniform",
    "compute_fans",
]


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return (fan_in, fan_out) for dense or convolutional weight shapes."""
    if len(shape) == 2:  # (out_features, in_features)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # (out_channels, in_channels, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    elif len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    # repro: allow[DET001] -- unseeded convenience fallback; federated paths always pass rng
    return rng if rng is not None else np.random.default_rng()


def kaiming_uniform(shape, rng: Optional[np.random.Generator] = None,
                    gain: float = math.sqrt(2.0), dtype=np.float64) -> np.ndarray:
    """He-uniform initialization (default for conv/linear followed by ReLU)."""
    fan_in, _ = compute_fans(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return _rng(rng).uniform(-bound, bound, size=shape).astype(dtype)
