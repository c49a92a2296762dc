"""Shared machinery for the supervised FL baselines.

Every supervised method in the paper's comparison trains the same
architecture — the ``Encoder`` + linear ``Head`` of
:class:`repro.fl.models.ClassifierModel` — with cross-entropy on local
data; they differ in *which parameters travel*, *how they are aggregated*,
and *what personalization does*.  This module provides the common local
trainer and the :class:`SupervisedFL` base class that FedAvg(-FT) uses
directly and the body/head methods subclass, each declaring only its
``shared_part``.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.loader import batch_iterator
from ..data.synthetic import DataSplit
from ..fl.algorithm import ClientUpdate, FederatedAlgorithm
from ..fl.client import ClientData, derive_rng
from ..fl.config import FederatedConfig
from ..fl.models import ENCODER_PREFIX, HEAD_PREFIX, ClassifierModel
from ..fl.personalization import PersonalizationResult
from ..nn import SGD, Linear, Tensor, accuracy, cross_entropy
from ..nn.serialize import StateDict, split_state

__all__ = ["train_supervised_epochs", "evaluate_model", "personal_model_result",
           "SupervisedFL"]


def train_supervised_epochs(
    model: ClassifierModel,
    split: DataSplit,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    momentum: float,
    weight_decay: float,
    rng: np.random.Generator,
    parameters=None,
) -> float:
    """Cross-entropy SGD over ``split``; returns the mean batch loss.

    ``parameters`` restricts the optimizer to a subset (body/head methods
    freeze one part by passing the other part's parameters).
    """
    model.train()
    params = parameters if parameters is not None else model.parameters()
    trainable = [p for p in params if p.requires_grad]
    optimizer = SGD(trainable, lr=learning_rate, momentum=momentum,
                    weight_decay=weight_decay)
    total, count = 0.0, 0
    for _ in range(epochs):
        for batch in batch_iterator(len(split), batch_size, shuffle=True, rng=rng):
            optimizer.zero_grad()
            logits = model(Tensor(split.images[batch]))
            loss = cross_entropy(logits, split.labels[batch])
            loss.backward()
            optimizer.step()
            total += loss.item()
            count += 1
    return total / max(count, 1)


def evaluate_model(model: ClassifierModel, split: DataSplit) -> float:
    """Top-1 accuracy of the full model on a split."""
    if len(split) == 0:
        return 0.0
    return accuracy(model.predict(split.images), split.labels)


def personal_model_result(model: ClassifierModel, client: ClientData,
                          losses: Sequence[float] = ()) -> PersonalizationResult:
    """Personalization by evaluating a personal model as-is (APFL, Ditto,
    Per-FedAvg).  The head is copied: ``model`` is a template shared by
    every client of a cohort."""
    return PersonalizationResult(
        accuracy=evaluate_model(model, client.test),
        train_accuracy=evaluate_model(model, client.train),
        head=copy.deepcopy(model.head),
        losses=list(losses),
    )


class SupervisedFL(FederatedAlgorithm):
    """FedAvg and FedAvg-FT (McMahan et al., 2017), and the base of every
    supervised method.

    The whole model (encoder + head) is averaged by sample count.  The
    personalization probe starts from the global head: with
    ``fine_tune_head=False`` it runs zero epochs, i.e. evaluates the global
    model as-is (the paper's *FedAvg* row); with ``True`` the head is
    fine-tuned on local data first (*FedAvg-FT*).

    A subclass that ships only part of the model declares it in
    :attr:`shared_part`, and this class does the keeping: the global model
    holds that part's keys, and each client keeps the rest
    (:meth:`_local_keys`) as a state dict under ``<name>/<kept part>``,
    so FedPer and FedRep keep ``<name>/head`` and LG-FedAvg
    ``<name>/encoder``.  Every restore (:meth:`_load_template`) loads the
    initial state, then the kept keys, then the global model.
    """

    shared_part: Optional[str] = None
    """The part of the model that travels: ``"encoder"``, ``"head"``, or
    ``None`` for the whole model."""

    def __init__(
        self,
        config: FederatedConfig,
        num_classes: int,
        encoder_factory,
        fine_tune_head: bool = False,
        name: Optional[str] = None,
    ):
        super().__init__(config, num_classes)
        self.encoder_factory = encoder_factory
        self.fine_tune_head = fine_tune_head
        self.name = name if name is not None else (
            "fedavg-ft" if fine_tune_head else "fedavg"
        )
        self._template = ClassifierModel(
            encoder_factory, num_classes, rng=derive_rng(config.seed, 1)
        )
        self._initial_state = self._template.state_dict()
        self._global_keys = tuple(
            self._initial_state if self.shared_part is None
            else split_state(self._initial_state, self.shared_part)[0])

    # ------------------------------------------------------------------
    def build_global_state(self) -> StateDict:
        return {key: self._initial_state[key].copy() for key in self._global_keys}

    def _store_key(self) -> str:
        """Where a client keeps the part that does not travel (never
        written when :meth:`_local_keys` is empty)."""
        kept = HEAD_PREFIX if self.shared_part == ENCODER_PREFIX else ENCODER_PREFIX
        return f"{self.name}/{kept}"

    def _load_template(self, global_state: StateDict,
                       client: Optional[ClientData] = None) -> ClassifierModel:
        """The template with the initial state, then ``client``'s kept
        keys (if any), then the global model; every parameter trainable."""
        model = self._template
        model.load_state_dict(self._initial_state)  # reset any leftovers
        kept = None if client is None else client.store.get(self._store_key())
        if kept is not None:
            model.load_state_dict(kept, strict=False)
        model.load_state_dict(global_state, strict=False)
        model.requires_grad_(True)
        return model

    def _finish_update(self, client: ClientData, model: ClassifierModel,
                       metrics: Dict[str, float]) -> ClientUpdate:
        """Keep copies of the trained :meth:`_local_keys` in ``client``'s
        store and send the global keys, both in ``_initial_state`` order."""
        state = model.state_dict()
        kept = self._local_keys()
        if kept:
            client.store[self._store_key()] = OrderedDict(
                (key, state[key]) for key in kept)
        return ClientUpdate(
            client_id=client.client_id,
            state=OrderedDict((key, state[key]) for key in self._global_keys),
            weight=float(client.num_train_samples),
            metrics=metrics,
        )

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        model = self._load_template(global_state, client)
        rng = self.rng_for(client, round_index)
        loss = train_supervised_epochs(
            model,
            client.train,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            rng=rng,
        )
        return self._finish_update(client, model, {"loss": loss})

    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        model = self._load_template(global_state)
        return [model.features(array) for array in images]

    def probe_head(self, client: ClientData, global_state: StateDict) -> Linear:
        return self._load_template(global_state, client).head

    def probe_epochs(self) -> int:
        # FedAvg evaluates the global model as-is: a zero-epoch probe.
        return super().probe_epochs() if self.fine_tune_head else 0
