"""Simulated-async server aggregation: FedBuff-style buffers, staleness.

The synchronous round loop waits for every sampled client, reorders
updates into dispatch order, and averages once — the CI bitwise
contract.  Real cross-device servers do not wait: they flush a buffer of
the ``K`` fastest updates as soon as it fills (FedBuff), down-weighting
whatever arrives late.  :func:`buffered_aggregate` reproduces that
behaviour *deterministically*: client completion times are simulated
from the availability model's per-client speed multipliers and local
sample counts, so "who finished first" is a pure function of the run
config — the same updates flush in the same order on every backend.

Policy mapping (``FederatedConfig.aggregation``):

* ``"buffered"`` — FedBuff with ``aggregation_buffer``-sized flushes;
* ``"staleness"`` — the degenerate buffer of size 1, i.e. pure
  staleness-weighted sequential application;
* ``"sync"`` — not this module; the session calls the algorithm's
  ``aggregate`` once over the round's updates in sampled order.

An update in the ``f``-th flush has staleness ``f`` (it arrived ``f``
server steps after the round's model was cut) and its weight is scaled
by ``(1 + f) ** -staleness_decay`` before the algorithm's own
``aggregate`` runs.  Each flush then moves the server model by its
population share: ``state <- (1 - r) * state + r * flushed`` with
``r = len(flush) / total_updates``, so a full single flush reduces
exactly to the synchronous path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from ...nn.serialize import StateDict, weighted_average
from ..algorithm import ClientUpdate, FederatedAlgorithm

__all__ = ["buffered_aggregate", "simulated_completion_order"]


def simulated_completion_order(durations: Sequence[float]) -> List[int]:
    """Positions ordered by simulated completion time.

    Ties break by input position, which keeps the order total and
    deterministic even for a homogeneous fleet (all durations equal
    reduces to dispatch order — and therefore to the sync reduction
    order).
    """
    return sorted(range(len(durations)),
                  key=lambda position: (float(durations[position]), position))


def buffered_aggregate(algorithm: FederatedAlgorithm,
                       updates: Sequence[ClientUpdate],
                       global_state: StateDict, round_index: int, *,
                       durations: Sequence[float], buffer_size: int,
                       staleness_decay: float
                       ) -> Tuple[StateDict, List[int]]:
    """FedBuff-style buffered aggregation over simulated completion order.

    ``updates`` and ``durations`` are aligned by sampled position
    (``durations`` is each participant's simulated duration: speed
    multiplier x local sample count, supplied by the session).  Returns
    the next global state and each update's staleness — the index of the
    flush it landed in — in the same positions.
    """
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    if staleness_decay < 0.0:
        raise ValueError("staleness_decay must be >= 0")
    if len(durations) != len(updates):
        raise ValueError(f"got {len(durations)} durations for "
                         f"{len(updates)} updates")
    staleness = [0] * len(updates)
    arrival = simulated_completion_order(durations)
    total = len(arrival)
    state = global_state
    for start in range(0, total, buffer_size):
        flush = arrival[start:start + buffer_size]
        flush_index = start // buffer_size
        scale = (1.0 + flush_index) ** -staleness_decay
        scaled = []
        for position in flush:
            staleness[position] = flush_index
            update = updates[position]
            scaled.append(replace(update, weight=update.weight * scale))
        flushed = algorithm.aggregate(scaled, state, round_index)
        rate = len(flush) / total
        # One full flush is exactly the sync combine; partial flushes
        # move the server by their population share.
        state = flushed if rate >= 1.0 else weighted_average(
            [state, flushed], [1.0 - rate, rate])
    return state, staleness
