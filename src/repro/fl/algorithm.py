"""The federated-algorithm strategy interface.

A :class:`FederatedAlgorithm` owns model construction and the three phases
of a pFL experiment, each one code path:

* ``local_update`` — one sampled client's contribution in a round;
* ``aggregate`` — combine client updates into the next global state
  (default: FedAvg's sample-count-weighted average).  The session calls
  it once per round over the updates in sampled order, or once per
  simulated flush under the async policies
  (:func:`~repro.fl.population.buffered_aggregate`);
* ``personalize`` — the post-training stage run on *every* client: the
  paper's linear probe on frozen features, which ``cohort_personalize``
  trains client-batched.  The cohort step extracts every client's train
  and test features in one ``extract_features`` call, so a method loads
  its frozen model once per cohort, not once per array.  Methods choose
  the probe's starting head (``probe_head``) and epoch count
  (``probe_epochs``); only methods that evaluate a personal model
  instead (APFL, Ditto, Per-FedAvg) override ``personalize``.

Baselines override the pieces they change; Calibre overrides
``local_update`` (prototype losses) and ``aggregate`` (divergence-aware
weighting).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..nn import Linear
from ..nn.serialize import StateDict, weighted_average
from .client import ClientData, derive_rng
from .config import FederatedConfig
from .personalization import (
    PersonalizationResult,
    ProbeTask,
    train_linear_probe,
    train_linear_probes,
)

__all__ = ["ClientUpdate", "FederatedAlgorithm"]


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

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Frozen features of a cohort, one array per input, in input order.

        ``images[i]`` holds samples of ``clients[i]`` (a client may appear
        more than once, say for its train and test arrays).  One call
        serves a whole cohort, so an implementation loads its frozen model
        once per call.  Each result must be bitwise what the array alone
        would give, whatever else the call carries.
        """
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

    def probe_head(self, client: ClientData, global_state: StateDict
                   ) -> Optional[Linear]:
        """The head the client's probe starts from, or ``None`` for a fresh
        one drawn from the client's personalization generator.

        The probe trains a copy, so the head may live on a template shared
        by every client of a cohort.
        """
        return None

    def probe_epochs(self) -> int:
        """Epochs of the personalization probe (0 evaluates the starting
        head as-is)."""
        return self.config.personalization_epochs

    def _probe_tasks(self, clients: Sequence[ClientData],
                     global_state: StateDict) -> List[ProbeTask]:
        """Every client's probe inputs, from one feature-extraction call
        over the cohort's train and test arrays."""
        for client in clients:
            if len(client.train) == 0:
                raise ValueError(f"cannot personalize client {client.client_id} "
                                 "with no training samples")
        features = self.extract_features(
            [client for client in clients for _ in range(2)], global_state,
            [split.images for client in clients
             for split in (client.train, client.test)])
        tasks = []
        for position, client in enumerate(clients):
            # The probe trains its head in place, and the hook's head may
            # live on a template the next client reloads: copy it at once.
            head = self.probe_head(client, global_state)
            tasks.append(ProbeTask(
                features[2 * position], client.train.labels,
                features[2 * position + 1], client.test.labels,
                rng=derive_rng(self.config.seed, 9_999, client.client_id),
                head=None if head is None else copy.deepcopy(head)))
        return tasks

    def _probe_options(self) -> Dict:
        config = self.config
        return dict(num_classes=self.num_classes, epochs=self.probe_epochs(),
                    learning_rate=config.personalization_lr,
                    batch_size=config.personalization_batch_size)

    def personalize(self, client: ClientData, global_state: StateDict
                    ) -> PersonalizationResult:
        """The paper's personalization stage: linear probe on frozen
        features — the K=1 case of :meth:`cohort_personalize`."""
        (task,) = self._probe_tasks([client], global_state)
        return train_linear_probe(
            task.train_features, task.train_labels,
            task.test_features, task.test_labels,
            rng=task.rng, head=task.head, **self._probe_options())

    def cohort_personalize(self, clients: Sequence[ClientData],
                           global_state: StateDict
                           ) -> List[PersonalizationResult]:
        """Personalize a cohort of clients, results in client order.

        With the stock :meth:`personalize`, one :meth:`extract_features`
        call encodes the whole cohort, then every client's probe trains on
        the client-batched engine
        (:func:`~repro.fl.personalization.train_linear_probes`), which
        groups clients by feature shape and returns results bitwise
        identical to personalizing each client alone.  An algorithm that
        overrides :meth:`personalize` gets it looped per client.
        """
        if type(self).personalize is not FederatedAlgorithm.personalize:
            return [self.personalize(client, global_state) for client in clients]
        return train_linear_probes(self._probe_tasks(clients, global_state),
                                   **self._probe_options())

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
