"""FedEMA (Zhuang et al., ICLR 2022): divergence-aware federated
self-supervised learning.

Builds on BYOL: clients train online/target networks locally and the
server aggregates online networks.  FedEMA's novelty is the *divergence-
aware exponential moving average* when a client receives the global model —
instead of overwriting its local online network, the client mixes

    y ← μ · y_local + (1 - μ) · w_global,     μ = min(λ · ||w_global - y_local||, 1)

so clients whose local models have drifted far keep more personalization.
The paper compares Calibre against FedEMA directly (§V-A).
"""

from __future__ import annotations

from typing import Tuple

from ..fl.client import ClientData
from ..fl.config import FederatedConfig
from ..nn.serialize import StateDict, interpolate_states, state_distance
from ..ssl import SSLMethod
from .pfl_ssl import PFLSSL

__all__ = ["FedEMA"]


class FedEMA(PFLSSL):
    def __init__(
        self,
        config: FederatedConfig,
        num_classes: int,
        encoder_factory,
        ema_lambda: float = 1.0,
        **kwargs,
    ):
        kwargs.setdefault("ssl_name", "byol")
        super().__init__(config, num_classes, encoder_factory, **kwargs)
        if ema_lambda < 0:
            raise ValueError("ema_lambda must be non-negative")
        self.name = "fedema"
        self.ema_lambda = ema_lambda

    def _local_keys(self) -> Tuple[str, ...]:
        """Every state key: the restore below mixes the saved online
        network, which is global, into the incoming global model."""
        return tuple(self._initial_state)

    def _restore_client_method(self, client: ClientData,
                               global_state: StateDict) -> SSLMethod:
        method = self._template
        key = f"{self.name}/local"
        if self.persist_local_state and key in client.store:
            saved_state, saved_extra = client.store[key]
            method.load_state_dict(saved_state)
            if saved_extra:
                method.load_extra_state(saved_extra)
            # Divergence-aware EMA merge of the incoming global model into
            # the client's local online network.
            local_global_part = method.global_state()
            divergence = state_distance(global_state, local_global_part)
            mu = min(self.ema_lambda * divergence, 1.0)
            mixed = interpolate_states(global_state, local_global_part, mu)
            method.load_global_state(mixed)
        else:
            method.load_state_dict(self._initial_state)
            if self._initial_extra:
                method.load_extra_state(self._initial_extra)
            method.load_global_state(global_state)
        return method
