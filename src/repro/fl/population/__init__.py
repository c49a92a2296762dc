"""Virtual client populations: million-client federations on one machine.

The package splits the problem into three orthogonal planes, all riding
on the repo's one RNG primitive (:func:`~repro.fl.client.derive_rng`) so
every behaviour is a pure function of ``(seed, round, client_id)``:

* :mod:`~repro.fl.population.virtual` — **existence**.
  :class:`VirtualPopulation` keeps clients as O(bytes)
  :class:`ClientDescriptor` recipes and realizes
  :class:`~repro.fl.client.ClientData` lazily behind an LRU cache, so
  resident memory is O(active clients), not O(population).  It pickles
  as its recipe alone, which is what a process pool installs in each
  worker.
* :mod:`~repro.fl.population.availability` — **presence**.
  :class:`AvailabilityModel` derives per-round join/leave churn, mid-round
  dropout, and per-client speed multipliers from an
  :class:`~repro.fl.config.AvailabilitySpec`.
* :mod:`~repro.fl.population.aggregation` — **arrival**.
  :func:`buffered_aggregate` simulates FedBuff-style buffered /
  staleness-weighted servers over deterministic simulated completion
  times; strictly opt-in via ``FederatedConfig.aggregation`` (the sync
  path remains the CI bitwise contract).

:class:`~repro.fl.session.TrainingSession` accepts a
``VirtualPopulation`` anywhere it accepts a client list; see
``docs/population.md`` for the full tour.
"""

from ..config import AGGREGATION_POLICIES, AvailabilitySpec
from .aggregation import buffered_aggregate, simulated_completion_order
from .availability import AvailabilityModel
from .virtual import ClientDescriptor, VirtualPopulation

__all__ = [
    "AGGREGATION_POLICIES",
    "AvailabilitySpec",
    "AvailabilityModel",
    "ClientDescriptor",
    "VirtualPopulation",
    "buffered_aggregate",
    "simulated_completion_order",
]
