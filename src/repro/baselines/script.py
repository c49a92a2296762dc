"""Script baselines: each client trains alone, no federation at all.

The paper's control: "we allow each client to train its personalized model
(i.e., a linear classifier) separately based solely on their local
datasets.  Script-Convergent refers to the model trained until convergence,
whereas Script-Fair corresponds to the model trained after 10 epochs."

The personalized model is a linear classifier over the raw (flattened)
pixels — no shared encoder exists because nothing is communicated.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..fl.algorithm import ClientUpdate, FederatedAlgorithm
from ..fl.client import ClientData
from ..fl.config import FederatedConfig
from ..nn.serialize import StateDict

__all__ = ["ScriptLocal"]


class ScriptLocal(FederatedAlgorithm):
    """Local-only linear classifiers (Script-Fair / Script-Convergent)."""

    def __init__(self, config: FederatedConfig, num_classes: int,
                 convergent: bool = False, convergent_epochs: int = 100,
                 name: str = None):
        super().__init__(config, num_classes)
        self.convergent = convergent
        self.convergent_epochs = convergent_epochs
        self.name = name if name is not None else (
            "script-convergent" if convergent else "script-fair"
        )

    def build_global_state(self) -> StateDict:
        return {}  # nothing is shared

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        # No training stage: clients do not participate in federation, so
        # there is no loss to report (the round's mean_loss stays NaN, and
        # no client counts as non-finite).
        return ClientUpdate(client_id=client.client_id, state={},
                            weight=float(client.num_train_samples))

    def aggregate(self, updates, global_state: StateDict, round_index: int) -> StateDict:
        return global_state

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [array.reshape(array.shape[0], -1) for array in images]

    def probe_epochs(self) -> int:
        return (self.convergent_epochs if self.convergent
                else super().probe_epochs())
