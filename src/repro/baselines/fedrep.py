"""FedRep (Collins et al., ICML 2021): shared representation, local heads,
with *sequential* head-then-body local training.

Each participating client first fits its local head to the current global
representation (encoder frozen), then takes gradient steps on the encoder
with the head frozen.  Only the encoder is communicated.
"""

from __future__ import annotations

from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData
from ..fl.config import require_count
from ..nn.serialize import StateDict
from .fedper import FedPer
from .supervised import train_supervised_epochs

__all__ = ["FedRep"]


class FedRep(FedPer):
    def __init__(self, config, num_classes, encoder_factory,
                 head_epochs: int = 2, name: str = "fedrep"):
        super().__init__(config, num_classes, encoder_factory, name=name)
        require_count("head_epochs", head_epochs, minimum=1)
        self.head_epochs = head_epochs

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        model = self._load_template(global_state, client)
        rng = self.rng_for(client, round_index)
        config = self.config

        # Phase 1: head only, encoder frozen.
        model.encoder.requires_grad_(False)
        model.head.requires_grad_(True)
        head_loss = train_supervised_epochs(
            model, client.train,
            epochs=self.head_epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            rng=rng,
            parameters=model.head.parameters(),
        )
        # Phase 2: encoder only, head frozen.
        model.encoder.requires_grad_(True)
        model.head.requires_grad_(False)
        body_loss = train_supervised_epochs(
            model, client.train,
            epochs=config.local_epochs,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            rng=rng,
            parameters=model.encoder.parameters(),
        )
        return self._finish_update(client, model,
                                   {"loss": body_loss, "head_loss": head_loss})
