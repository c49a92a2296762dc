"""FedBABU (Oh et al., ICLR 2022): body aggregation, body update.

During federated training the head stays *frozen at its shared random
initialization* on every client; only the encoder learns and is averaged.
Personalization then fine-tunes the head from that fixed initialization —
the paper's closest two-stage supervised competitor to Calibre.
"""

from __future__ import annotations

from typing import Tuple

from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData
from ..fl.models import ENCODER_PREFIX
from ..nn.serialize import StateDict
from .supervised import SupervisedFL, train_supervised_epochs

__all__ = ["FedBABU"]


class FedBABU(SupervisedFL):
    shared_part = ENCODER_PREFIX

    def __init__(self, config, num_classes, encoder_factory, name: str = "fedbabu"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=True,
                         name=name)

    def _local_keys(self) -> Tuple[str, ...]:
        """Nothing: the head is the frozen shared initialization, which
        every restore loads."""
        return ()

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        model = self._load_template(global_state, client)
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
        return self._finish_update(client, model, {"loss": loss})
