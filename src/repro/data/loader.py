"""Minibatch iteration with explicit RNG control.

:func:`batch_iterator` yields index batches; every training and
personalization loop slices its own arrays with them.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

__all__ = ["batch_iterator"]


def batch_iterator(
    count: int,
    batch_size: int,
    shuffle: bool,
    rng: Optional[np.random.Generator] = None,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(count)`` in batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(count)
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        order = rng.permutation(count)
    for start in range(0, count, batch_size):
        batch = order[start : start + batch_size]
        if drop_last and batch.shape[0] < batch_size:
            return
        yield batch

