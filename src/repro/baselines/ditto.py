"""Ditto (Li et al., ICML 2021): fairness and robustness through
personalization.

The global model trains exactly like FedAvg; *additionally*, each client
maintains a personal model trained with a proximal term pulling it toward
the current global weights:

    min_v  F_k(v) + (λ/2) ||v - w_global||²

Personalization evaluates the client's personal model; novel clients train
a fresh personal model from the final global weights.
"""

from __future__ import annotations

import numpy as np

from ..data.loader import batch_iterator
from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData, derive_rng
from ..fl.personalization import PersonalizationResult
from ..nn import Tensor, cross_entropy
from ..nn.serialize import StateDict, clone_state
from .supervised import SupervisedFL, personal_model_result

__all__ = ["Ditto"]


class Ditto(SupervisedFL):
    def __init__(self, config, num_classes, encoder_factory,
                 prox_lambda: float = 0.5, personal_epochs: int = 1,
                 name: str = "ditto"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=False,
                         name=name)
        if prox_lambda < 0:
            raise ValueError("prox_lambda must be non-negative")
        self.prox_lambda = prox_lambda
        self.personal_epochs = personal_epochs

    def _personal_key(self) -> str:
        return f"{self.name}/personal"

    def _train_personal(self, client: ClientData, global_state: StateDict,
                        personal_state: StateDict, epochs: int,
                        rng: np.random.Generator) -> StateDict:
        """Proximal SGD on the personal model toward the global weights."""
        config = self.config
        model = self._template
        model.load_state_dict(self._initial_state)
        model.load_state_dict(personal_state, strict=False)
        model.train()
        params = dict(model.named_parameters())
        lr = config.learning_rate
        for _ in range(epochs):
            for batch in batch_iterator(len(client.train), config.batch_size,
                                        shuffle=True, rng=rng):
                model.zero_grad()
                logits = model(Tensor(client.train.images[batch]))
                loss = cross_entropy(logits, client.train.labels[batch])
                loss.backward()
                for name, param in params.items():
                    grad = param.grad if param.grad is not None else 0.0
                    prox = self.prox_lambda * (param.data - global_state[name])
                    param.data -= lr * (grad + prox)
        return model.state_dict()

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        # Global objective: identical to FedAvg.
        update = super().local_update(client, global_state, round_index)
        # Personal objective: proximal steps from the client's stored model.
        rng = derive_rng(self.config.seed, round_index, client.client_id, 7)
        personal = client.store.get(self._personal_key())
        if personal is None:
            personal = clone_state(global_state)
        client.store[self._personal_key()] = self._train_personal(
            client, global_state, personal, self.personal_epochs, rng
        )
        return update

    def personalize(self, client: ClientData, global_state: StateDict
                    ) -> PersonalizationResult:
        config = self.config
        rng = derive_rng(config.seed, 9_999, client.client_id)
        personal = client.store.get(self._personal_key())
        if personal is None:
            # Novel client: train a personal model from the global weights.
            personal = self._train_personal(
                client, global_state, clone_state(global_state),
                config.personalization_epochs, rng,
            )
        model = self._template
        model.load_state_dict(self._initial_state)
        model.load_state_dict(personal, strict=False)
        return personal_model_result(model, client)
