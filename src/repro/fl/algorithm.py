"""The federated-algorithm strategy interface.

A :class:`FederatedAlgorithm` owns model construction and the three phases
of a pFL experiment:

* ``local_update`` — one sampled client's contribution in a round;
* ``aggregate`` — combine client updates into the next global state
  (default: FedAvg's sample-count-weighted average);
* ``personalize`` — the post-training stage run on *every* client
  (default: the paper's linear probe on frozen encoder features, which
  ``cohort_personalize`` trains client-batched).

Baselines override the pieces they change; Calibre overrides
``local_update`` (prototype losses) and ``aggregate`` (divergence-aware
weighting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..nn.serialize import StateDict, weighted_average
from .client import ClientData, derive_rng
from .config import FederatedConfig
from .personalization import (
    PersonalizationResult,
    ProbeTask,
    train_linear_probe,
    train_linear_probes,
)

__all__ = ["ClientUpdate", "FederatedAlgorithm", "UpdateAccumulator"]


@dataclass
class ClientUpdate:
    """What a client sends back to the server after a local update.

    ``payload`` carries algorithm-specific structures beyond the model
    state (e.g. SCAFFOLD's control-variate deltas).
    """

    client_id: int
    state: StateDict
    weight: float
    metrics: Dict[str, float] = field(default_factory=dict)
    payload: Dict[str, object] = field(default_factory=dict)


class UpdateAccumulator:
    """Consumes client updates as they complete; combines at finalize.

    The :class:`~repro.fl.session.TrainingSession` feeds this object from
    an iterator of completed cohorts (``ExecutionBackend.imap``), so
    per-update work in :meth:`ingest` overlaps with still-running clients
    instead of waiting for the round barrier — the seam future
    async-aggregation strategies plug into.

    The final combine runs over updates reordered into *input* (dispatch)
    order, never completion order: floating-point reduction is
    order-sensitive, and reordering is what keeps serial, thread, and
    process backends bitwise identical (the determinism contract of
    :mod:`repro.fl.execution`).  The async aggregation policies
    (:class:`~repro.fl.population.BufferedAccumulator`) subclass this and
    override :meth:`finalize` with a *simulated* completion order — also a
    pure function of the run config, never of real scheduling — so even
    "async" runs keep the cross-backend guarantee.
    """

    def __init__(self, algorithm: "FederatedAlgorithm", global_state: StateDict,
                 round_index: int):
        self.algorithm = algorithm
        self.global_state = global_state
        self.round_index = round_index
        self._slots: Dict[int, ClientUpdate] = {}

    def add(self, index: int, update: ClientUpdate) -> None:
        """Accept the update of input position ``index`` (completion order)."""
        if index in self._slots:
            raise ValueError(f"duplicate update for input position {index}")
        self._slots[index] = update
        self.ingest(update)

    def ingest(self, update: ClientUpdate) -> None:
        """Eager per-update hook, called in completion order.

        The default does nothing; algorithms override it to start
        order-insensitive work (cloning, divergence statistics, delta
        precomputation) before the round barrier.
        """

    def finalize(self) -> StateDict:
        """Combine all accepted updates into the next global state."""
        ordered = [self._slots[index] for index in sorted(self._slots)]
        return self.algorithm.aggregate(ordered, self.global_state,
                                        self.round_index)

    def updates_in_order(self) -> Sequence[ClientUpdate]:
        """Accepted updates in input (dispatch) order."""
        return [self._slots[index] for index in sorted(self._slots)]


class FederatedAlgorithm:
    """Base class; subclasses define the model and local training."""

    name = "base"

    def __init__(self, config: FederatedConfig, num_classes: int):
        self.config = config
        self.num_classes = num_classes

    # ------------------------------------------------------------------
    # Required pieces
    # ------------------------------------------------------------------
    def build_global_state(self) -> StateDict:
        """Initial global model snapshot (round 0)."""
        raise NotImplementedError

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        """Run local training on one client, returning its update."""
        raise NotImplementedError

    def extract_features(self, client: ClientData, global_state: StateDict,
                         images: np.ndarray) -> np.ndarray:
        """Frozen-feature extraction used by the default personalization."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cohort-level execution (client-batched vectorization seam)
    # ------------------------------------------------------------------
    def cohort_key(self, client: ClientData) -> Optional[Hashable]:
        """Grouping key for client-batched execution, or ``None``.

        Clients returning the same non-``None`` key may be dispatched
        together through :meth:`cohort_update`; ``None`` (the default)
        opts the client out of batching entirely.  A key must only group
        clients whose local updates are *homogeneous* — identical data
        shapes and identical per-step computation — because batched
        execution is required to be bitwise identical to the per-client
        path.
        """
        return None

    def cohort_update(self, clients: Sequence[ClientData],
                      global_state: StateDict,
                      round_index: int) -> List[ClientUpdate]:
        """Run local updates for a cohort, in client order.

        The default simply loops :meth:`local_update`; algorithms with a
        vectorized engine (see :class:`~repro.baselines.pfl_ssl.PFLSSL`)
        override this to batch homogeneous clients and must return results
        bitwise identical to the loop — falling back to it whenever the
        batched path cannot guarantee that.
        """
        return [self.local_update(client, global_state, round_index)
                for client in clients]

    # ------------------------------------------------------------------
    # Default behaviours
    # ------------------------------------------------------------------
    def aggregate(self, updates: Sequence[ClientUpdate],
                  global_state: StateDict, round_index: int) -> StateDict:
        """FedAvg: weighted average of client states by sample count."""
        if not updates:
            return global_state
        return weighted_average([u.state for u in updates], [u.weight for u in updates])

    def personalize(self, client: ClientData, global_state: StateDict
                    ) -> PersonalizationResult:
        """The paper's personalization stage: linear probe on frozen features."""
        config = self.config
        rng = derive_rng(config.seed, 9_999, client.client_id)
        train_features = self.extract_features(client, global_state, client.train.images)
        test_features = self.extract_features(client, global_state, client.test.images)
        return train_linear_probe(
            train_features,
            client.train.labels,
            test_features,
            client.test.labels,
            num_classes=self.num_classes,
            epochs=config.personalization_epochs,
            learning_rate=config.personalization_lr,
            batch_size=config.personalization_batch_size,
            rng=rng,
        )

    def cohort_personalize(self, clients: Sequence[ClientData],
                           global_state: StateDict
                           ) -> List[PersonalizationResult]:
        """Personalize a cohort of clients, results in client order.

        With the stock :meth:`personalize`, every client's features are
        extracted and the probes train on the client-batched engine
        (:func:`~repro.fl.personalization.train_linear_probes`), which
        groups clients by feature shape and returns results bitwise
        identical to personalizing each client alone.  An algorithm that
        overrides :meth:`personalize` gets it looped per client.
        """
        if type(self).personalize is not FederatedAlgorithm.personalize:
            return [self.personalize(client, global_state) for client in clients]
        config = self.config
        tasks = [ProbeTask(
            self.extract_features(client, global_state, client.train.images),
            client.train.labels,
            self.extract_features(client, global_state, client.test.images),
            client.test.labels,
            rng=derive_rng(config.seed, 9_999, client.client_id),
        ) for client in clients]
        return train_linear_probes(
            tasks,
            num_classes=self.num_classes,
            epochs=config.personalization_epochs,
            learning_rate=config.personalization_lr,
            batch_size=config.personalization_batch_size,
        )

    def make_aggregator(self, global_state: StateDict,
                        round_index: int) -> UpdateAccumulator:
        """Build this round's update consumer (see :class:`UpdateAccumulator`).

        The default buffers updates and calls :meth:`aggregate` over them
        in input order at finalize — bitwise identical to the classic
        barriered round loop.  Algorithms with order-insensitive
        aggregation can return an accumulator that does real work in
        ``ingest`` instead.
        """
        return UpdateAccumulator(self, global_state, round_index)

    # ------------------------------------------------------------------
    # Server-side state (round-level checkpointing)
    # ------------------------------------------------------------------
    def server_state(self) -> Dict:
        """Snapshot of all server-side state this algorithm mutates across
        rounds (beyond the global model, which the session owns).

        The returned dict must be a *copy* (checkpoints must not alias
        live arrays) and must survive the exact-JSON codec of
        :mod:`repro.fl.session.codec`: nested dicts/lists/tuples of numpy
        arrays and plain scalars.  Stateless algorithms return ``{}``.
        """
        return {}

    def load_server_state(self, state: Dict) -> None:
        """Restore a :meth:`server_state` snapshot.

        Called after :meth:`build_global_state` has re-initialized the
        algorithm's internal slots, so implementations may assume the
        same post-init invariants as round 0.
        """
        if state:
            raise ValueError(
                f"algorithm '{self.name}' keeps no server-side state but the "
                f"checkpoint carries keys {sorted(state)}")

    def rng_for(self, client: ClientData, round_index: int) -> np.random.Generator:
        """Per-(seed, round, client) generator.

        A pure function of the run seed and the task's coordinates, so
        local updates stay independent of dispatch order and the parallel
        backends reproduce serial runs exactly.
        """
        return derive_rng(self.config.seed, round_index, client.client_id)
