"""Tests for the KMeans substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import kmeans, kmeans_plus_plus_init


def blobs(k=3, per=40, d=4, sep=8.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d)) * sep
    points = np.concatenate([centers[j] + rng.standard_normal((per, d)) for j in range(k)])
    labels = np.repeat(np.arange(k), per)
    return points, labels, centers


class TestKMeansFunction:
    def test_recovers_separated_blobs(self):
        points, labels, _ = blobs(seed=1)
        result = kmeans(points, 3, rng=np.random.default_rng(2))
        # Cluster assignments should be a relabeling of the true labels.
        for j in range(3):
            members = result.labels[labels == j]
            majority = np.bincount(members).max()
            assert majority / members.shape[0] > 0.95

    def test_converges(self):
        points, _, _ = blobs(seed=3)
        result = kmeans(points, 3, rng=np.random.default_rng(4))
        assert result.converged
        assert result.iterations < 100

    def test_inertia_decreases_with_more_clusters(self):
        points, _, _ = blobs(seed=5)
        inertia_2 = kmeans(points, 2, rng=np.random.default_rng(0)).inertia
        inertia_6 = kmeans(points, 6, rng=np.random.default_rng(0)).inertia
        assert inertia_6 < inertia_2

    def test_k_clamped_to_point_count(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(points, 5, rng=np.random.default_rng(0))
        assert result.centers.shape[0] == 2

    def test_single_cluster_center_is_mean(self):
        points, _, _ = blobs(k=2, seed=6)
        result = kmeans(points, 1, rng=np.random.default_rng(0))
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0), atol=1e-8)

    def test_identical_points(self):
        points = np.ones((10, 3))
        result = kmeans(points, 3, rng=np.random.default_rng(0))
        assert np.all(np.isfinite(result.centers))
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 2)
        with pytest.raises(ValueError):
            kmeans(np.zeros((4, 2)), 0)
        with pytest.raises(ValueError):
            kmeans(np.zeros(4), 2)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_property_labels_in_range_and_partition(self, k):
        points, _, _ = blobs(k=3, per=20, seed=9)
        result = kmeans(points, k, rng=np.random.default_rng(10))
        assert result.labels.shape[0] == points.shape[0]
        assert result.labels.min() >= 0
        assert result.labels.max() < min(k, points.shape[0])

    def test_same_rng_seed_reproduces_run(self):
        # Batched and per-client training must cluster identically.
        points, _, _ = blobs(seed=17)
        first = kmeans(points, 3, rng=np.random.default_rng(18))
        second = kmeans(points, 3, rng=np.random.default_rng(18))
        np.testing.assert_array_equal(first.centers, second.centers)
        np.testing.assert_array_equal(first.labels, second.labels)
        assert first.inertia == second.inertia

    def test_assignment_is_nearest_center(self):
        points, _, _ = blobs(seed=11)
        result = kmeans(points, 3, rng=np.random.default_rng(12))
        dists = ((points[:, None, :] - result.centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(result.labels, dists.argmin(axis=1))


class TestKMeansPlusPlus:
    def test_centers_are_input_points(self):
        points, _, _ = blobs(seed=13)
        centers = kmeans_plus_plus_init(points, 3, np.random.default_rng(14))
        for center in centers:
            assert np.any(np.all(np.isclose(points, center), axis=1))

    def test_spreads_centers(self):
        # Two far blobs: the two seeds should land in different blobs almost surely.
        rng = np.random.default_rng(15)
        a = rng.standard_normal((50, 2))
        b = rng.standard_normal((50, 2)) + 100.0
        points = np.concatenate([a, b])
        centers = kmeans_plus_plus_init(points, 2, np.random.default_rng(16))
        assert abs(centers[0, 0] - centers[1, 0]) > 50.0

