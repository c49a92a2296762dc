"""FedBABU (Oh et al., ICLR 2022): body aggregation, body update.

During federated training the head stays *frozen at its shared random
initialization* on every client; only the encoder learns and is averaged.
Personalization then fine-tunes the head from that fixed initialization —
the paper's closest two-stage supervised competitor to Calibre.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData
from ..nn import Linear
from ..nn.serialize import StateDict, split_state
from .supervised import SupervisedFL, train_supervised_epochs

__all__ = ["FedBABU"]


class FedBABU(SupervisedFL):
    def __init__(self, config, num_classes, encoder_factory, name: str = "fedbabu"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=True,
                         name=name)

    def build_global_state(self) -> StateDict:
        encoder_state, _ = split_state(self._initial_state, "encoder")
        return {k: v.copy() for k, v in encoder_state.items()}

    def _load_body(self, global_state: StateDict):
        """Global encoder + the shared fixed head initialization."""
        model = self._template
        model.load_state_dict(self._initial_state)  # restores the fixed head
        model.load_state_dict(global_state, strict=False)
        return model

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        model = self._load_body(global_state)
        model.encoder.requires_grad_(True)
        model.head.requires_grad_(False)  # the defining FedBABU constraint
        rng = self.rng_for(client, round_index)
        loss = train_supervised_epochs(
            model, client.train,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            rng=rng,
            parameters=model.encoder.parameters(),
        )
        model.requires_grad_(True)
        encoder_state, _ = split_state(model.state_dict(), "encoder")
        return ClientUpdate(
            client_id=client.client_id,
            state=encoder_state,
            weight=float(client.num_train_samples),
            metrics={"loss": loss},
        )

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        model = self._load_body(global_state)
        return [model.features(array) for array in images]

    def probe_head(self, client: ClientData, global_state: StateDict) -> Linear:
        # Fine-tune from the fixed head initialization.
        return self._load_body(global_state).head
