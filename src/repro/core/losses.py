"""Calibre's loss terms (paper §IV-B, Algorithm 1).

The total training-stage loss is ``L = l_c + l_s + α (l_p + l_n)``:

* ``l_s`` — the base SSL objective (NT-Xent for Calibre (SimCLR));
* ``l_n`` (:func:`meta_term`) — Algorithm 1 line 17: each view-e encoding
  is pulled toward the prototype of its cluster (built from view-o
  encodings) and pushed from encodings of other clusters;
* ``l_p`` (:func:`contrastive_term`) — lines 8-12: the two views'
  per-cluster prototypes of the projector outputs form positive pairs in an
  NT-Xent loss, shrinking prototype variance across augmentations;
* ``l_c`` (:func:`classification_term`) — the prototypical-network term
  softmax(-d(z, v_k)) against pseudo-labels, maximizing I(x'; y'|θ_b) per
  Theorem 1.

Each term has two halves, so one implementation of the math serves both
the per-client loop and client-batched replay (:mod:`repro.nn.trace`):

* :func:`prototype_plan` — per client, on raw arrays: everything the terms
  derive from the k-means labels (one-hot memberships, counts, fallback
  masks, the clusters l_p keeps);
* the ``*_term`` functions — traceable: they read the plan's arrays as
  tensors (trace inputs when recording) and branch only on which arrays
  the plan holds.

:meth:`repro.core.Calibre.loss_plan` and
:meth:`~repro.core.Calibre.planned_loss` are the one composition of the
two, and both training paths run them.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..nn import functional as F
from ..nn.losses import target_cross_entropy
from ..nn.tensor import Tensor
from ..ssl.losses import nt_xent
from .prototypes import ViewClusters, cluster_membership, prototype_means

__all__ = [
    "prototype_plan",
    "classification_term",
    "meta_term",
    "contrastive_term",
]

PlanLeaves = Mapping[str, object]
"""A plan's arrays as loss inputs: tensors, and the ``keep`` row index."""


def prototype_plan(clusters: ViewClusters, dtype, use_lc: bool = True,
                   use_ln: bool = True, use_lp: bool = True
                   ) -> Dict[str, np.ndarray]:
    """The per-client half of the enabled terms, on raw arrays.

    Holds exactly the arrays the ``*_term`` functions read, so its layout
    — which arrays exist, and their shapes — is the set of branches they
    take: whether l_p exists and how many clusters it keeps (``keep``),
    and which views blend in fallback centers (``mask_e``/``mask_o``).
    """
    k = clusters.num_clusters
    member_e, counts_e, mask_e = cluster_membership(clusters.labels_e, k, dtype)
    member_o, counts_o, mask_o = cluster_membership(clusters.labels_o, k, dtype)
    plan: Dict[str, np.ndarray] = {}
    if use_lc or use_ln:
        plan.update(centers=clusters.centers.astype(dtype), member_e=member_e)
    if use_ln:
        # Average within each cluster, then across clusters (the paper's
        # Σ_k (1/N_k) Σ_{j∈I_k^e} form).
        counts = member_e.sum(axis=0)
        weights = np.zeros_like(counts)
        nonempty = counts > 0
        weights[nonempty] = 1.0 / counts[nonempty]
        plan.update(member_o=member_o, counts_o=counts_o,
                    weights_e=member_e @ weights,  # 1/N_{k_j}
                    clusters_e=np.array(max(int(nonempty.sum()), 1), dtype=dtype))
    if use_lp:
        # Only clusters populated in *both* views participate in l_p, and
        # it needs two of them.
        populated = np.intersect1d(np.unique(clusters.labels_e),
                                   np.unique(clusters.labels_o))
        if populated.shape[0] >= 2:
            plan.update(member_e=member_e, member_o=member_o, counts_e=counts_e,
                        counts_o=counts_o, keep=populated.astype(np.int64))
            if mask_e is not None:
                plan["mask_e"] = mask_e
    if mask_o is not None and "member_o" in plan:
        plan["mask_o"] = mask_o
    return plan


def classification_term(z: Tensor, centers: Tensor, target: Tensor) -> Tensor:
    """Traceable l_c: cross-entropy of ``softmax(-d(z, centers))`` against
    the one-hot pseudo-labels ``target``."""
    logits = -F.pairwise_sq_distances(z, centers)
    return target_cross_entropy(logits, target)


def meta_term(z_e: Tensor, z_o: Tensor, plan: PlanLeaves,
              temperature: float) -> Tensor:
    """Traceable l_n (Algorithm 1 line 17) over :func:`prototype_plan`.

    Prototypes ``v_k`` are differentiable means of view-o encodings per
    cluster; for every view-e encoding ``z_j`` in cluster k the loss is

        -log  exp(z_j · v_k / τ) / (exp(z_j · v_k / τ) +
              Σ_{a ∈ I_e, cluster(a) ≠ k} exp(z_a · v_k / τ))

    i.e. the positive is the sample-prototype affinity, the negatives are
    the affinities of *other clusters'* samples to the same prototype.
    Encodings and prototypes are L2-normalized for numerical stability.
    """
    prototypes = prototype_means(z_o, plan["member_o"], plan["counts_o"],
                                 plan.get("mask_o"), plan.get("centers"))
    z_norm = F.normalize(z_e, axis=1)
    proto_norm = F.normalize(prototypes, axis=1)
    logits = (z_norm @ proto_norm.transpose()) / temperature  # (N, K)

    # exp with a detached global max subtracted for stability (a tensor, not
    # a float, so replay subtracts each client's own max).
    exp_scores = (logits - logits.detach().max()).exp()  # (N, K)

    member = plan["member_e"]
    positives = (exp_scores * member).sum(axis=1)  # exp(z_j . v_{k_j})
    column_total = exp_scores.sum(axis=0)  # (K,) over all view-e samples
    member_total = (exp_scores * member).sum(axis=0)  # (K,) same-cluster mass
    negatives = member @ (column_total - member_total)  # (N,) own cluster's denom
    losses = -(positives.log() - (positives + negatives).log())
    return (losses * plan["weights_e"]).sum() / plan["clusters_e"]


def contrastive_term(h_e: Tensor, h_o: Tensor, plan: PlanLeaves,
                     temperature: float) -> Tensor:
    """Traceable l_p (Algorithm 1 lines 8-12): NT-Xent between the two
    views' per-cluster prototypes of the projector outputs, matching
    clusters as positives, over the clusters :func:`prototype_plan` keeps."""
    fallback = Tensor(np.zeros((plan["counts_e"].shape[0], h_e.shape[1]),
                               dtype=h_e.data.dtype))
    nu_e = prototype_means(h_e, plan["member_e"], plan["counts_e"],
                           plan.get("mask_e"), fallback)
    nu_o = prototype_means(h_o, plan["member_o"], plan["counts_o"],
                           plan.get("mask_o"), fallback)
    return nt_xent(nu_e[plan["keep"]], nu_o[plan["keep"]], temperature)

