"""FedPer (Arivazhagan et al., 2019): federated body, personal head.

Clients train the full model locally, but only the encoder ("base layers")
is communicated and averaged; each client's head persists locally across
rounds and is used — and further refined — at personalization time.
"""

from __future__ import annotations

from ..fl.models import ENCODER_PREFIX
from .supervised import SupervisedFL

__all__ = ["FedPer"]


class FedPer(SupervisedFL):
    shared_part = ENCODER_PREFIX

    def __init__(self, config, num_classes, encoder_factory, name: str = "fedper"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=True,
                         name=name)
