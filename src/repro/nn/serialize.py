"""State-dict arithmetic: the FL wire format.

Federated algorithms manipulate model snapshots as ordered mappings from
dotted parameter names to numpy arrays.  This module supplies the vector
algebra those algorithms need — averaging, weighted combination, deltas
(SCAFFOLD's control variates), distances, and body/head splits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Sequence, Tuple

import numpy as np

StateDict = Dict[str, np.ndarray]

__all__ = [
    "clone_state",
    "state_add",
    "state_sub",
    "state_scale",
    "weighted_average",
    "state_distance",
    "split_state",
    "merge_states",
    "interpolate_states",
]


def clone_state(state: StateDict) -> StateDict:
    """Deep-copy a state dict."""
    return OrderedDict((name, np.array(value, copy=True)) for name, value in state.items())


def _check_same_keys(a: StateDict, b: StateDict) -> None:
    if list(a.keys()) != list(b.keys()):
        only_a = set(a) - set(b)
        only_b = set(b) - set(a)
        raise KeyError(f"state dicts differ: only_left={sorted(only_a)}, only_right={sorted(only_b)}")


def state_add(a: StateDict, b: StateDict) -> StateDict:
    _check_same_keys(a, b)
    return OrderedDict((name, a[name] + b[name]) for name in a)


def state_sub(a: StateDict, b: StateDict) -> StateDict:
    """Elementwise ``a - b`` (client delta = new - old)."""
    _check_same_keys(a, b)
    return OrderedDict((name, a[name] - b[name]) for name in a)


def state_scale(state: StateDict, factor: float) -> StateDict:
    return OrderedDict((name, value * factor) for name, value in state.items())


def weighted_average(states: Sequence[StateDict], weights: Sequence[float]) -> StateDict:
    """Convex combination of state dicts; weights are normalized to sum 1.

    This is the FedAvg aggregation primitive; Calibre feeds divergence-aware
    weights into the same function.
    """
    if not states:
        raise ValueError("weighted_average needs at least one state dict")
    if len(states) != len(weights):
        raise ValueError("states and weights must have equal length")
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("aggregation weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("aggregation weights must not all be zero")
    weights = weights / total
    for other in states[1:]:
        _check_same_keys(states[0], other)
    result: StateDict = OrderedDict()
    for name in states[0]:
        accumulator = np.zeros_like(states[0][name], dtype=np.float64)
        for state, weight in zip(states, weights):
            accumulator += weight * state[name]
        result[name] = accumulator.astype(states[0][name].dtype)
    return result


def state_distance(a: StateDict, b: StateDict) -> float:
    """Euclidean distance between two snapshots (divergence diagnostics)."""
    return float(np.sqrt(sum(float((value**2).sum())
                             for value in state_sub(a, b).values())))


def split_state(state: StateDict, prefix: str) -> Tuple[StateDict, StateDict]:
    """Split into (matching, rest) by dotted-name prefix.

    Used by body/head algorithms (FedRep, FedPer, LG-FedAvg, FedBABU) that
    communicate only part of the model.
    """
    matching: StateDict = OrderedDict()
    rest: StateDict = OrderedDict()
    dotted = prefix if prefix.endswith(".") else prefix + "."
    for name, value in state.items():
        if name == prefix or name.startswith(dotted):
            matching[name] = value
        else:
            rest[name] = value
    return matching, rest


def merge_states(*parts: StateDict) -> StateDict:
    """Union of disjoint state dicts (inverse of :func:`split_state`)."""
    merged: StateDict = OrderedDict()
    for part in parts:
        for name, value in part.items():
            if name in merged:
                raise KeyError(f"duplicate key '{name}' while merging states")
            merged[name] = value
    return merged


def interpolate_states(a: StateDict, b: StateDict, alpha: float) -> StateDict:
    """``(1 - alpha) * a + alpha * b`` — APFL mixing and EMA updates."""
    _check_same_keys(a, b)
    return OrderedDict(
        (name, ((1.0 - alpha) * a[name] + alpha * b[name]).astype(a[name].dtype)) for name in a
    )
