"""LG-FedAvg (Liang et al., 2019): local representations, global head.

The mirror image of FedPer: each client keeps a *local encoder* learning
client-specific representations, while the classifier head is shared and
averaged globally.  Novel clients receive the initial encoder weights plus
the global head.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..fl.client import ClientData
from ..fl.models import HEAD_PREFIX
from ..nn.serialize import StateDict
from .supervised import SupervisedFL

__all__ = ["LGFedAvg"]


class LGFedAvg(SupervisedFL):
    shared_part = HEAD_PREFIX

    def __init__(self, config, num_classes, encoder_factory, name: str = "lg-fedavg"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=True,
                         name=name)

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        # Each client encodes with its own local encoder.
        return [self._load_template(global_state, client).features(array)
                for client, array in zip(clients, images)]
