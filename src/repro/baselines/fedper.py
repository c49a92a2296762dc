"""FedPer (Arivazhagan et al., 2019): federated body, personal head.

Clients train the full model locally, but only the encoder ("base layers")
is communicated and averaged; each client's head persists locally across
rounds and is used — and further refined — at personalization time.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData
from ..nn import Linear
from ..nn.serialize import StateDict, split_state
from .supervised import SupervisedFL, train_supervised_epochs

__all__ = ["FedPer"]


class FedPer(SupervisedFL):
    def __init__(self, config, num_classes, encoder_factory, name: str = "fedper"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=True,
                         name=name)

    def build_global_state(self) -> StateDict:
        encoder_state, _ = split_state(self._initial_state, "encoder")
        return {k: v.copy() for k, v in encoder_state.items()}

    def _local_head_key(self) -> str:
        return f"{self.name}/head"

    def _assemble(self, client: ClientData, global_state: StateDict):
        """Template = global encoder + this client's persistent head."""
        model = self._template
        model.load_state_dict(self._initial_state)
        model.load_state_dict(global_state, strict=False)
        head_state = client.store.get(self._local_head_key())
        if head_state is not None:
            model.load_state_dict(head_state, strict=False)
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
        full_state = model.state_dict()
        encoder_state, head_state = split_state(full_state, "encoder")
        client.store[self._local_head_key()] = head_state
        return ClientUpdate(
            client_id=client.client_id,
            state=encoder_state,
            weight=float(client.num_train_samples),
            metrics={"loss": loss},
        )

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        model = self._template
        model.load_state_dict(self._initial_state)
        model.load_state_dict(global_state, strict=False)
        return [model.features(array) for array in images]

    def probe_head(self, client: ClientData, global_state: StateDict) -> Linear:
        # The probe continues from the client's persistent head.
        return self._assemble(client, global_state).head
