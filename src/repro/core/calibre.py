"""Calibre: the paper's personalized-FL framework (§IV).

Calibre extends pFL-SSL with exactly the two mechanisms of the paper:

1. **Client-adaptive prototype regularizers** during the local update
   (Algorithm 1): the total loss becomes

       L = l_c + l_s + α (l_p + l_n),        α = 0.3 (§V-A)

   where l_s is the base SSL objective of the wrapped method and the other
   terms come from KMeans prototypes over the batch encodings
   (:mod:`repro.core.losses`).  ``use_ln``/``use_lp`` toggles reproduce the
   Table I ablation.

2. **Divergence-aware aggregation**: each update carries the client's
   average sample-to-prototype distance; the server turns those divergence
   rates into aggregation weights (:mod:`repro.core.divergence`).

``Calibre(SimCLR)``, ``Calibre(BYOL)``, … from the paper are obtained by
passing the corresponding ``ssl_name``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..baselines.pfl_ssl import PFLSSL, LossPlan
from ..fl.algorithm import ClientUpdate
from ..fl.config import FederatedConfig
from ..nn.serialize import StateDict, weighted_average
from ..nn.tensor import Tensor
from ..nn.trace import input_leaves
from ..ssl import SSLMethod, SSLOutputs
from .divergence import DIVERGENCE_MODES, divergence_weights
from .losses import (
    PlanLeaves,
    classification_term,
    contrastive_term,
    meta_term,
    prototype_plan,
)
from .prototypes import average_prototype_distance, cluster_views

__all__ = ["Calibre"]


class Calibre(PFLSSL):
    """The paper's framework, parameterized by the base SSL method."""

    def __init__(
        self,
        config: FederatedConfig,
        num_classes: int,
        encoder_factory,
        ssl_name: str = "simclr",
        alpha: float = 0.3,
        num_prototypes: Optional[int] = None,
        prototype_temperature: float = 0.5,
        use_ln: bool = True,
        use_lp: bool = True,
        use_lc: bool = True,
        divergence_temperature: float = 1.0,
        divergence_mode: str = "softmax",
        **kwargs,
    ):
        super().__init__(config, num_classes, encoder_factory, ssl_name=ssl_name, **kwargs)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.name = f"calibre-{self.ssl_name}"
        self.alpha = alpha
        # The paper clusters with KMeans without fixing K; we default to the
        # task's class count, capped by what a batch can support.
        self.num_prototypes = num_prototypes if num_prototypes is not None else num_classes
        if self.num_prototypes < 2:
            raise ValueError("need at least two prototypes")
        # Checked here, not at use: a bad temperature trains on NaN or
        # sign-flipped logits, and a bad mode fails only at aggregation.
        if not prototype_temperature > 0:
            raise ValueError("prototype_temperature must be positive, "
                             f"got {prototype_temperature!r}")
        if not divergence_temperature >= 0:
            raise ValueError("divergence_temperature must be >= 0, "
                             f"got {divergence_temperature!r}")
        if divergence_mode not in DIVERGENCE_MODES:
            raise ValueError(f"unknown divergence_mode {divergence_mode!r}; "
                             f"available: {DIVERGENCE_MODES}")
        self.prototype_temperature = prototype_temperature
        self.use_ln = use_ln
        self.use_lp = use_lp
        self.use_lc = use_lc
        self.divergence_temperature = divergence_temperature
        self.divergence_mode = divergence_mode

    # ------------------------------------------------------------------
    # Contribution 1: the calibrated local loss (Algorithm 1)
    # ------------------------------------------------------------------
    def local_loss(self, method: SSLMethod, outputs: SSLOutputs,
                   rng: np.random.Generator):
        """One batch's loss and metrics: the plan, then the planned loss.

        The client-batched engine composes the same two halves over a
        cohort (:meth:`PFLSSL.cohort_update`).
        """
        plan = self.loss_plan(outputs.z_e, outputs.z_o, rng)
        loss, terms = self.planned_loss(outputs, input_leaves(plan.arrays))
        metrics: Dict[str, float] = {name: term.item() for name, term in terms.items()}
        metrics.update(plan.metrics)
        return loss, metrics

    def loss_plan(self, z_e: Tensor, z_o: Tensor,
                  rng: np.random.Generator) -> LossPlan:
        """KMeans over the batch's encodings (Algorithm 1 line 13) and the
        arrays the prototype terms derive from its labels."""
        clusters = cluster_views(z_e, z_o, self.num_prototypes, rng=rng)
        arrays = prototype_plan(clusters, z_e.data.dtype, use_lc=self.use_lc,
                                use_ln=self.use_ln, use_lp=self.use_lp)
        # The local divergence rate reported to the server (mean distance of
        # this batch's encodings to their assigned prototypes).
        both = Tensor(np.concatenate([z_e.data, z_o.data], axis=0))
        return LossPlan(arrays, {"divergence": average_prototype_distance(both, clusters)})

    def planned_loss(self, outputs: SSLOutputs, plan: PlanLeaves
                     ) -> Tuple[Tensor, Dict[str, Tensor]]:
        loss = outputs.loss  # l_s
        terms: Dict[str, Tensor] = {}
        if self.use_lc:
            terms["l_c"] = classification_term(outputs.z_e, plan["centers"],
                                               plan["member_e"])
            loss = loss + terms["l_c"]
        regularizer = None
        if self.use_ln:
            terms["l_n"] = regularizer = meta_term(
                outputs.z_e, outputs.z_o, plan, self.prototype_temperature)
        if "keep" in plan:  # use_lp, and two clusters populated in both views
            terms["l_p"] = l_p = contrastive_term(
                outputs.h_e, outputs.h_o, plan, self.prototype_temperature)
            regularizer = l_p if regularizer is None else regularizer + l_p
        if regularizer is not None:
            loss = loss + self.alpha * regularizer
        return loss, terms

    # ------------------------------------------------------------------
    # Contribution 2: divergence-aware aggregation
    # ------------------------------------------------------------------
    def aggregate(self, updates: Sequence[ClientUpdate],
                  global_state: StateDict, round_index: int) -> StateDict:
        if not updates:
            return global_state
        divergences = [u.metrics.get("divergence", 0.0) for u in updates]
        weights = divergence_weights(
            [u.weight for u in updates],
            divergences,
            temperature=self.divergence_temperature,
            mode=self.divergence_mode,
        )
        return weighted_average([u.state for u in updates], weights)
