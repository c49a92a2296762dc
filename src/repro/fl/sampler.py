"""Client sampling: which clients participate in each round.

A sampler implements one method, ``sample_ids(client_ids, round_index,
count=None)``: it picks participant ids from a candidate id list.  The
session samples a materialized federation and a virtual population
(:mod:`repro.fl.population`) the same way, over client ids, so a
population never has to materialize its candidates as ``ClientData``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .client import derive_rng

__all__ = ["RandomSampler", "RoundRobinSampler"]

# Domain-separation tag for the participant-sampling stream.  Algorithms
# already consume derive_rng(seed, small_int) streams (e.g. the SSL
# template init uses (seed, 0)), so sampling must not share their
# coordinates: a collision would correlate participant selection with
# model-init noise under the same config.seed.
_PARTICIPANT_STREAM = 715_517


class RandomSampler:
    """Uniformly sample ``count`` distinct clients each round (the paper's
    protocol: 10 of 100 clients per round).

    The participant set is a pure function of ``(seed, round_index)`` —
    the determinism contract of :mod:`repro.fl.execution` — so sampling
    round 5 before round 3, or sampling the same round twice, always
    yields the same participants.  (A stateful generator advanced per
    call would make participant sets depend on call order instead.)
    """

    def __init__(self, count: int, seed: int = 0):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count = count
        self.seed = seed

    def sample_ids(self, client_ids: Sequence[int], round_index: int,
                   count: Optional[int] = None) -> List[int]:
        """Sample ids from a candidate list, sorted ascending by position.

        ``count`` overrides ``self.count`` for callers that must clamp to
        a shrunken candidate pool (availability churn can leave fewer than
        ``count`` clients online); ``count < 1`` returns an empty round
        rather than raising, since an empty online pool is a legitimate
        churn outcome, not a configuration error.
        """
        if count is None:
            count = self.count
        if count < 1:
            return []
        if count > len(client_ids):
            raise ValueError(
                f"cannot sample {count} of {len(client_ids)} clients")
        rng = derive_rng(self.seed, _PARTICIPANT_STREAM, round_index)
        chosen = rng.choice(len(client_ids), size=count, replace=False)
        return [int(client_ids[i]) for i in sorted(chosen)]


class RoundRobinSampler:
    """Deterministic rotation — useful in tests where coverage matters."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count = count

    def sample_ids(self, client_ids: Sequence[int], round_index: int,
                   count: Optional[int] = None) -> List[int]:
        n = len(client_ids)
        if count is None:
            count = self.count
        if n == 0 or count < 1:
            return []
        # Stride by self.count (not the clamped count) so the rotation
        # pattern is independent of per-round availability.
        start = (round_index * self.count) % n
        return [int(client_ids[(start + offset) % n])
                for offset in range(min(count, n))]
