"""Deterministic client availability: join/leave churn, dropout, speed.

:class:`AvailabilityModel` turns an
:class:`~repro.fl.config.AvailabilitySpec` into concrete per-round
decisions, all derived from ``derive_rng`` streams so churned runs stay
bitwise identical across the serial and process backends:

* **membership** — a two-state Markov chain per client, advanced one
  round at a time with vectorized draws.  The stationary online fraction
  is ``spec.availability``; ``spec.churn`` sets how fast the chain mixes
  (``1.0`` redraws membership i.i.d. each round, values toward ``0.0``
  make membership sticky).  Membership for round ``r`` is a pure function
  of ``(seed, rounds 0..r)``: querying out of order simply replays the
  chain from round 0, and the checkpointed ``round_cursor``
  (:meth:`state_dict`) lets a resumed session re-derive the exact state.
* **dropout** — a per-``(round, client)`` Bernoulli draw from its own
  stream, independent of the sampled set, so whether a client drops never
  depends on who else was sampled.
* **speed** — a static per-client lognormal multiplier used by the async
  aggregation policies to order simulated completions.

The three stream tags below are domain-separation constants in the same
spirit as the sampler's ``_PARTICIPANT_STREAM``: large enough to never
collide with round indices or the small per-algorithm stream ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..client import derive_rng
from ..config import AvailabilitySpec

__all__ = ["AvailabilityModel"]

_MEMBERSHIP_STREAM = 860_501
_DROPOUT_STREAM = 860_503
_SPEED_STREAM = 860_507


class AvailabilityModel:
    """Per-round availability decisions over ``num_clients`` positions.

    Membership is tracked positionally (position ``i`` is the ``i``-th
    candidate client the session offers to the sampler); dropout and
    speed are keyed by actual client id so they stay pure per client no
    matter how the candidate list shifts.
    """

    def __init__(self, spec: AvailabilitySpec, num_clients: int, seed: int):
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.spec = spec
        self.num_clients = int(num_clients)
        self.seed = int(seed)
        self._cursor = -1  # last round the membership chain advanced to
        self._online: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Membership (Markov join/leave churn)
    # ------------------------------------------------------------------
    def _advance_one(self) -> None:
        round_index = self._cursor + 1
        rng = derive_rng(self.seed, _MEMBERSHIP_STREAM, round_index)
        draw = rng.random(self.num_clients)
        p = self.spec.availability
        if self._online is None:
            # Round 0 starts the chain at its stationary distribution.
            self._online = draw < p
        else:
            # Transition rates scaled by churn keep the stationary online
            # fraction at p for every churn in (0, 1]: offline->online
            # with probability churn*p, online->offline with churn*(1-p).
            churn = self.spec.churn
            join = draw < churn * p
            stay = draw >= churn * (1.0 - p)
            self._online = np.where(self._online, stay, join)
        self._cursor = round_index

    def _seek(self, round_index: int) -> None:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        if round_index < self._cursor:
            # Rewind by replaying from round 0 — same draws, same chain.
            self._cursor = -1
            self._online = None
        while self._cursor < round_index:
            self._advance_one()

    def available_positions(self, round_index: int) -> np.ndarray:
        """Sorted positions online in ``round_index`` (pure per round)."""
        self._seek(round_index)
        return np.flatnonzero(self._online)

    # ------------------------------------------------------------------
    # Mid-round dropout and straggler speed
    # ------------------------------------------------------------------
    def drops_out(self, client_id: int, round_index: int) -> bool:
        """Whether this sampled participant drops before its update lands."""
        if self.spec.dropout <= 0.0:
            return False
        rng = derive_rng(self.seed, _DROPOUT_STREAM, round_index, client_id)
        return bool(rng.random() < self.spec.dropout)

    def speed_multiplier(self, client_id: int) -> float:
        """Static simulated-duration multiplier for one client (>= 0).

        ``1.0`` for a homogeneous fleet (``speed_spread == 0``); larger
        values mean a slower device.
        """
        if self.spec.speed_spread <= 0.0:
            return 1.0
        rng = derive_rng(self.seed, _SPEED_STREAM, client_id)
        return float(rng.lognormal(mean=0.0, sigma=self.spec.speed_spread))

    def speed_multipliers(self, client_ids: Sequence[int]) -> List[float]:
        return [self.speed_multiplier(int(cid)) for cid in client_ids]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """The RNG cursor a checkpoint persists (see ``ServerState``).

        Membership itself is not serialized: it is a pure function of
        ``(seed, rounds 0..cursor)``, so :meth:`load_state_dict` replays
        the chain instead — bitwise identical and O(rounds) cheap.
        """
        return {"round_cursor": int(self._cursor)}

    def load_state_dict(self, state: Dict) -> None:
        cursor = int(state.get("round_cursor", -1))
        self._cursor = -1
        self._online = None
        if cursor >= 0:
            self._seek(cursor)

    def __repr__(self) -> str:
        return (f"AvailabilityModel(num_clients={self.num_clients}, "
                f"seed={self.seed}, cursor={self._cursor}, spec={self.spec})")
