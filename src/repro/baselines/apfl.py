"""APFL (Deng et al., 2020): adaptive personalized federated learning.

Every client maintains a personal model ``v`` and a mixing coefficient
``α``; its personalized predictor is the interpolation
``v̄ = α·v + (1-α)·w`` with the global model ``w``.  Each local step
updates ``w`` with the plain gradient, updates ``v`` with the gradient of
the mixed model, and adapts ``α`` by the scalar gradient
``⟨∇L(v̄), v - w⟩``.  Only ``w`` is communicated.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data.loader import batch_iterator
from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData
from ..fl.personalization import PersonalizationResult
from ..nn import Tensor, cross_entropy
from ..nn.serialize import StateDict, clone_state, interpolate_states
from .supervised import SupervisedFL, personal_model_result

__all__ = ["APFL"]


class APFL(SupervisedFL):
    def __init__(self, config, num_classes, encoder_factory,
                 initial_alpha: float = 0.5, alpha_lr: float = 0.1,
                 adaptive_alpha: bool = True, name: str = "apfl"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=False,
                         name=name)
        if not 0.0 <= initial_alpha <= 1.0:
            raise ValueError("initial_alpha must be in [0, 1]")
        self.initial_alpha = initial_alpha
        self.alpha_lr = alpha_lr
        self.adaptive_alpha = adaptive_alpha

    # ------------------------------------------------------------------
    def _client_slot(self, client: ClientData) -> Dict:
        key = f"{self.name}/personal"
        if key not in client.store:
            client.store[key] = {
                "v": clone_state(self._initial_state),
                "alpha": self.initial_alpha,
            }
        return client.store[key]

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        config = self.config
        rng = self.rng_for(client, round_index)
        slot = self._client_slot(client)
        model = self._template
        model.train()
        params = dict(model.named_parameters())
        lr = config.learning_rate

        w = clone_state(global_state)
        v = slot["v"]
        alpha = slot["alpha"]
        total_loss, steps = 0.0, 0

        def gradient_at(state: StateDict, batch_idx) -> Dict[str, np.ndarray]:
            model.load_state_dict(self._initial_state)
            model.load_state_dict(state, strict=False)
            model.zero_grad()
            logits = model(Tensor(client.train.images[batch_idx]))
            loss = cross_entropy(logits, client.train.labels[batch_idx])
            loss.backward()
            grads = {
                name: (param.grad.copy() if param.grad is not None
                       else np.zeros_like(param.data))
                for name, param in params.items()
            }
            return loss.item(), grads

        for _ in range(config.local_epochs):
            for batch in batch_iterator(len(client.train), config.batch_size,
                                        shuffle=True, rng=rng):
                # 1) Global-model step.
                loss_w, grads_w = gradient_at(w, batch)
                for name in grads_w:
                    w[name] = w[name] - lr * grads_w[name]
                # 2) Personal-model step at the mixed point v̄ = α v + (1-α) w.
                mixed = interpolate_states(w, v, alpha)  # (1-α)w + αv
                loss_m, grads_m = gradient_at(mixed, batch)
                for name in grads_m:
                    v[name] = v[name] - lr * alpha * grads_m[name]
                # 3) α step: dL/dα = <∇L(v̄), v - w>.
                if self.adaptive_alpha:
                    inner = sum(
                        float((grads_m[name] * (v[name] - w[name])).sum())
                        for name in grads_m
                    )
                    alpha = float(np.clip(alpha - self.alpha_lr * inner, 0.0, 1.0))
                total_loss += loss_m
                steps += 1
        slot["v"] = v
        slot["alpha"] = alpha
        return ClientUpdate(
            client_id=client.client_id,
            state=w,
            weight=float(client.num_train_samples),
            metrics={"loss": total_loss / max(steps, 1), "alpha": alpha},
        )

    def personalize(self, client: ClientData, global_state: StateDict
                    ) -> PersonalizationResult:
        """Evaluate the client's mixed personal model (novel clients fall
        back to the global model, α = 0)."""
        key = f"{self.name}/personal"
        model = self._template
        model.load_state_dict(self._initial_state)
        if key in client.store:
            slot = client.store[key]
            mixed = interpolate_states(global_state, slot["v"], slot["alpha"])
            model.load_state_dict(mixed, strict=False)
        else:
            model.load_state_dict(global_state, strict=False)
        return personal_model_result(model, client)
