"""Tests for Calibre's prototype machinery and loss terms.

The terms run the way both training paths run them: a per-batch
:func:`prototype_plan` on raw arrays, fed as leaves to the traceable
``*_term`` functions.
"""

import numpy as np
import pytest

from repro.core import (
    ViewClusters,
    average_prototype_distance,
    classification_term,
    cluster_views,
    contrastive_term,
    divergence_weights,
    meta_term,
    prototype_plan,
)
from repro.core.prototypes import cluster_membership, prototype_means
from repro.nn import Tensor
from repro.nn.trace import input_leaves

from ..helpers import rng


def clustered_views(k=3, per=10, d=6, sep=6.0, seed=0):
    """Two views of clustered encodings (view o = view e + small noise)."""
    generator = rng(seed)
    centers = generator.standard_normal((k, d)) * sep
    z_e = np.concatenate([centers[j] + generator.standard_normal((per, d)) for j in range(k)])
    z_o = z_e + 0.1 * generator.standard_normal(z_e.shape)
    return (Tensor(z_e, requires_grad=True), Tensor(z_o, requires_grad=True))


def plan_leaves(clusters, dtype, **terms):
    """One batch's plan for the enabled ``terms``, as eager loss leaves."""
    return input_leaves(prototype_plan(clusters, dtype, **terms))


def cluster_means(features, assignments, num_clusters, fallback=None):
    """:func:`prototype_means` over one view's :func:`cluster_membership`."""
    membership, counts, mask = cluster_membership(
        np.asarray(assignments), num_clusters, features.data.dtype)
    return prototype_means(features, Tensor(membership), Tensor(counts),
                           None if mask is None else Tensor(mask),
                           None if fallback is None else Tensor(fallback))


class TestClusterViews:
    def test_shapes(self):
        z_e, z_o = clustered_views()
        clusters = cluster_views(z_e, z_o, 3, rng=rng(1))
        assert clusters.centers.shape == (3, 6)
        assert clusters.labels_e.shape == (30,)
        assert clusters.labels_o.shape == (30,)

    def test_views_of_same_sample_agree(self):
        z_e, z_o = clustered_views(seed=2)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(2))
        agreement = (clusters.labels_e == clusters.labels_o).mean()
        assert agreement > 0.9

    def test_shape_mismatch_raises(self):
        z_e, _ = clustered_views()
        with pytest.raises(ValueError):
            cluster_views(z_e, Tensor(np.zeros((5, 6))), 3)


class TestDifferentiablePrototypes:
    def test_prototype_is_cluster_mean(self):
        features = Tensor(rng(3).standard_normal((6, 4)), requires_grad=True)
        assignments = np.array([0, 0, 1, 1, 1, 0])
        prototypes = cluster_means(features, assignments, 2)
        np.testing.assert_allclose(
            prototypes.data[0], features.data[assignments == 0].mean(axis=0), atol=1e-10
        )
        np.testing.assert_allclose(
            prototypes.data[1], features.data[assignments == 1].mean(axis=0), atol=1e-10
        )

    def test_gradients_flow_to_features(self):
        features = Tensor(rng(4).standard_normal((5, 3)), requires_grad=True)
        assignments = np.array([0, 1, 0, 1, 0])
        prototypes = cluster_means(features, assignments, 2)
        (prototypes * prototypes).sum().backward()
        assert features.grad is not None
        assert np.any(features.grad != 0)

    def test_empty_cluster_uses_fallback(self):
        features = Tensor(rng(5).standard_normal((4, 3)), requires_grad=True)
        assignments = np.zeros(4, dtype=int)  # cluster 1 empty
        fallback = np.full((2, 3), 7.0)
        prototypes = cluster_means(features, assignments, 2, fallback)
        np.testing.assert_allclose(prototypes.data[1], np.full(3, 7.0))


class TestPrototypePlan:
    # Batched replay groups clients by the plan's layout, so the layout
    # must carry exactly what the enabled terms read.
    def test_layout_follows_enabled_terms(self):
        z_e, z_o = clustered_views(seed=21)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(21))
        dtype = z_e.data.dtype
        assert prototype_plan(clusters, dtype, use_lc=False, use_ln=False,
                              use_lp=False) == {}
        assert set(prototype_plan(clusters, dtype, use_ln=False,
                                  use_lp=False)) == {"centers", "member_e"}
        plan = prototype_plan(clusters, dtype)
        assert set(plan) == {"centers", "member_e", "member_o", "counts_e",
                             "counts_o", "weights_e", "clusters_e", "keep"}
        assert plan["member_e"].shape == (30, 3)
        np.testing.assert_array_equal(plan["keep"], [0, 1, 2])

    def test_masks_only_views_that_blend_fallbacks(self):
        # Cluster 2 is empty in both views; l_n blends fallbacks into
        # view o's prototypes only, l_p into both views'.
        clusters = ViewClusters(centers=np.eye(3), labels_e=np.array([0, 0, 1, 1]),
                                labels_o=np.array([0, 1, 1, 1]))
        meta = prototype_plan(clusters, np.float64, use_lc=False, use_lp=False)
        assert "mask_o" in meta and "mask_e" not in meta
        np.testing.assert_array_equal(meta["mask_o"].ravel(), [1.0, 1.0, 0.0])
        contrastive = prototype_plan(clusters, np.float64, use_lc=False,
                                     use_ln=False)
        assert "mask_e" in contrastive and "mask_o" in contrastive
        np.testing.assert_array_equal(contrastive["keep"], [0, 1])


class TestPrototypeMetaLoss:
    @staticmethod
    def meta_loss(z_e, z_o, clusters):
        plan = plan_leaves(clusters, z_e.data.dtype, use_lc=False, use_lp=False)
        return meta_term(z_e, z_o, plan, 0.5)

    def test_clustered_data_gives_lower_loss_than_shuffled(self):
        z_e, z_o = clustered_views(seed=6)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(6))
        tight = self.meta_loss(z_e, z_o, clusters).item()

        shuffled = ViewClusters(
            centers=clusters.centers,
            labels_e=rng(7).permutation(clusters.labels_e),
            labels_o=rng(8).permutation(clusters.labels_o),
        )
        loose = self.meta_loss(z_e, z_o, shuffled).item()
        assert tight < loose

    def test_gradients_reach_both_views(self):
        z_e, z_o = clustered_views(seed=9)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(9))
        self.meta_loss(z_e, z_o, clusters).backward()
        assert z_e.grad is not None and np.any(z_e.grad != 0)
        assert z_o.grad is not None and np.any(z_o.grad != 0)

    def test_finite_under_single_cluster(self):
        z_e = Tensor(rng(10).standard_normal((8, 4)), requires_grad=True)
        z_o = Tensor(rng(11).standard_normal((8, 4)), requires_grad=True)
        clusters = cluster_views(z_e, z_o, 1, rng=rng(12))
        loss = self.meta_loss(z_e, z_o, clusters)
        assert np.isfinite(loss.item())


class TestPrototypeContrastiveLoss:
    @staticmethod
    def plan(clusters, h_e):
        return plan_leaves(clusters, h_e.data.dtype, use_lc=False, use_ln=False)

    def test_positive_and_finite(self):
        z_e, z_o = clustered_views(seed=13)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(13))
        loss = contrastive_term(z_e, z_o, self.plan(clusters, z_e), 0.5)
        assert np.isfinite(loss.item())
        assert loss.item() > 0

    def test_single_cluster_plans_no_term(self):
        # l_p needs two clusters populated in both views; with one the
        # plan keeps none and Calibre.planned_loss skips the term.
        z_e, z_o = clustered_views(seed=14)
        clusters = cluster_views(z_e, z_o, 1, rng=rng(14))
        assert "keep" not in self.plan(clusters, z_e)

    def test_aligned_views_lower_loss_than_opposed(self):
        z_e, z_o = clustered_views(seed=15, sep=8.0)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(15))
        plan = self.plan(clusters, z_e)
        aligned = contrastive_term(z_e, z_o, plan, 0.5).item()
        opposed = contrastive_term(z_e, Tensor(-z_o.data), plan, 0.5).item()
        assert aligned < opposed


class TestPrototypeClassificationLoss:
    @staticmethod
    def classification_loss(z_e, clusters):
        plan = plan_leaves(clusters, z_e.data.dtype, use_ln=False, use_lp=False)
        return classification_term(z_e, plan["centers"], plan["member_e"])

    def test_tight_clusters_give_small_loss(self):
        z_e, z_o = clustered_views(seed=16, sep=10.0)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(16))
        loss = self.classification_loss(z_e, clusters)
        assert loss.item() < 0.5

    def test_gradient_flows(self):
        z_e, z_o = clustered_views(seed=17)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(17))
        self.classification_loss(z_e, clusters).backward()
        assert z_e.grad is not None


class TestAveragePrototypeDistance:
    def test_zero_when_points_are_centers(self):
        centers = rng(18).standard_normal((2, 3))
        z = Tensor(np.concatenate([centers, centers]))
        clusters = ViewClusters(centers=centers, labels_e=np.array([0, 1]),
                                labels_o=np.array([0, 1]))
        assert average_prototype_distance(z, clusters) == pytest.approx(0.0, abs=1e-12)

    def test_positive_otherwise(self):
        z_e, z_o = clustered_views(seed=19)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(19))
        combined = Tensor(np.concatenate([z_e.data, z_o.data]))
        assert average_prototype_distance(combined, clusters) > 0

    def test_one_view_rejected(self):
        z_e, z_o = clustered_views(seed=20)
        clusters = cluster_views(z_e, z_o, 3, rng=rng(20))
        with pytest.raises(ValueError, match="both views"):
            average_prototype_distance(z_e, clusters)


class TestDivergenceWeights:
    def test_equal_divergence_reduces_to_fedavg(self):
        weights = divergence_weights([10, 30], [1.0, 1.0])
        np.testing.assert_allclose(weights, [0.25, 0.75])

    def test_lower_divergence_gets_more_weight(self):
        weights = divergence_weights([10, 10], [0.5, 2.0])
        assert weights[0] > weights[1]

    def test_zero_divergences_fall_back_to_counts(self):
        weights = divergence_weights([1, 3], [0.0, 0.0])
        np.testing.assert_allclose(weights, [0.25, 0.75])

    def test_modes_agree_on_ordering(self):
        for mode in ("softmax", "inverse"):
            weights = divergence_weights([10, 10, 10], [0.1, 1.0, 3.0], mode=mode)
            assert weights[0] > weights[1] > weights[2]

    def test_sum_to_one(self):
        weights = divergence_weights([5, 7, 11], [0.3, 0.6, 0.9])
        assert weights.sum() == pytest.approx(1.0)

    def test_temperature_zero_is_fedavg(self):
        weights = divergence_weights([10, 30], [0.1, 5.0], temperature=0.0)
        np.testing.assert_allclose(weights, [0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            divergence_weights([], [])
        with pytest.raises(ValueError):
            divergence_weights([1, 2], [1.0])
        with pytest.raises(ValueError):
            divergence_weights([0, 2], [1.0, 1.0])
        with pytest.raises(ValueError):
            divergence_weights([1, 2], [-1.0, 1.0])
        with pytest.raises(ValueError):
            divergence_weights([1, 2], [np.nan, 1.0])
        with pytest.raises(ValueError):
            divergence_weights([1, 2], [1.0, 2.0], mode="bogus")
