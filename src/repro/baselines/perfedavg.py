"""Per-FedAvg (Fallah et al., NeurIPS 2020): MAML-style personalized FL.

The global model is trained so that *one adaptation step* on a client's
data yields a good personalized model.  We implement the first-order
approximation (FO-MAML, the variant the authors evaluate at scale): each
local step samples a support and a query batch, adapts θ → θ' on support,
computes the query gradient at θ', and applies it to θ.  Personalization
runs the adaptation steps on the client's training set before evaluating.
"""

from __future__ import annotations


from ..data.loader import batch_iterator
from ..fl.algorithm import ClientUpdate
from ..fl.client import ClientData, derive_rng
from ..fl.personalization import PersonalizationResult
from ..nn import Tensor, cross_entropy
from ..nn.serialize import StateDict
from .supervised import SupervisedFL, personal_model_result, train_supervised_epochs

__all__ = ["PerFedAvg"]


class PerFedAvg(SupervisedFL):
    def __init__(self, config, num_classes, encoder_factory,
                 inner_lr: float = 0.05, name: str = "perfedavg"):
        super().__init__(config, num_classes, encoder_factory, fine_tune_head=False,
                         name=name)
        if inner_lr <= 0:
            raise ValueError("inner_lr must be positive")
        self.inner_lr = inner_lr

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        config = self.config
        model = self._load_template(global_state)
        model.train()
        rng = self.rng_for(client, round_index)
        params = list(model.parameters())
        outer_lr = config.learning_rate
        total_loss, steps = 0.0, 0

        def batch_loss(batch_idx):
            logits = model(Tensor(client.train.images[batch_idx]))
            return cross_entropy(logits, client.train.labels[batch_idx])

        for _ in range(config.local_epochs):
            batches = list(batch_iterator(len(client.train), config.batch_size,
                                          shuffle=True, rng=rng))
            # Pair consecutive batches as (support, query).
            for support, query in zip(batches[0::2], batches[1::2]):
                snapshot = [p.data.copy() for p in params]
                # Inner step: θ' = θ - α ∇L_support(θ)
                model.zero_grad()
                batch_loss(support).backward()
                for param in params:
                    if param.grad is not None:
                        param.data -= self.inner_lr * param.grad
                # Outer gradient at θ' (first-order), applied to θ.
                model.zero_grad()
                query_loss = batch_loss(query)
                query_loss.backward()
                for param, original in zip(params, snapshot):
                    grad = param.grad
                    param.data[...] = original
                    if grad is not None:
                        param.data -= outer_lr * grad
                total_loss += query_loss.item()
                steps += 1
        return ClientUpdate(
            client_id=client.client_id,
            state=model.state_dict(),
            weight=float(client.num_train_samples),
            metrics={"loss": total_loss / max(steps, 1)},
        )

    def personalize(self, client: ClientData, global_state: StateDict
                    ) -> PersonalizationResult:
        """Adapt the meta-model on the local training set, then evaluate."""
        config = self.config
        model = self._load_template(global_state)
        rng = derive_rng(config.seed, 9_999, client.client_id)
        losses = []
        for _ in range(config.personalization_epochs):
            loss = train_supervised_epochs(
                model, client.train,
                epochs=1,
                batch_size=config.personalization_batch_size,
                learning_rate=self.inner_lr,
                momentum=0.0,
                weight_decay=0.0,
                rng=rng,
            )
            losses.append(loss)
        return personal_model_result(model, client, losses)
