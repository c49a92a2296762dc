"""LG-FedAvg (Liang et al., 2019): local representations, global head.

The mirror image of FedPer: each client keeps a *local encoder* learning
client-specific representations, while the classifier head is shared and
averaged globally.  Novel clients receive the initial encoder weights plus
the global head.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData
from ..nn import Linear
from ..nn.serialize import StateDict, split_state
from .supervised import SupervisedFL, train_supervised_epochs

__all__ = ["LGFedAvg"]


class LGFedAvg(SupervisedFL):
    def __init__(self, config, num_classes, encoder_factory, name: str = "lg-fedavg"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=True,
                         name=name)

    def build_global_state(self) -> StateDict:
        _, head_state = split_state(self._initial_state, "encoder")
        return {k: v.copy() for k, v in head_state.items()}

    def _local_encoder_key(self) -> str:
        return f"{self.name}/encoder"

    def _assemble(self, client: ClientData, global_state: StateDict):
        """Template = client's persistent encoder + global head."""
        model = self._template
        model.load_state_dict(self._initial_state)
        encoder_state = client.store.get(self._local_encoder_key())
        if encoder_state is not None:
            model.load_state_dict(encoder_state, strict=False)
        model.load_state_dict(global_state, strict=False)
        model.requires_grad_(True)
        return model

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        model = self._assemble(client, global_state)
        rng = self.rng_for(client, round_index)
        loss = train_supervised_epochs(
            model, client.train,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            rng=rng,
        )
        encoder_state, head_state = split_state(model.state_dict(), "encoder")
        client.store[self._local_encoder_key()] = encoder_state
        return ClientUpdate(
            client_id=client.client_id,
            state=head_state,
            weight=float(client.num_train_samples),
            metrics={"loss": loss},
        )

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        # Each client encodes with its own local encoder.
        return [self._assemble(client, global_state).features(array)
                for client, array in zip(clients, images)]

    def probe_head(self, client: ClientData, global_state: StateDict) -> Linear:
        # The probe fine-tunes the global head over the local encoder.
        return self._assemble(client, global_state).head
