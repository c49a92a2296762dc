"""Tests for repro.nn.functional composites: log-softmax, normalize, batchnorm, distances."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from ..helpers import assert_gradients_close, rng


def make(shape, seed=0, shift=0.0):
    return Tensor(rng(seed).standard_normal(shape) + shift, requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = make((4, 7), 1)
        probs = np.exp(F.log_softmax(x, axis=1).data)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-12)

    def test_invariant_to_shift(self):
        x = make((3, 5), 2)
        shifted = Tensor(x.data + 100.0)
        np.testing.assert_allclose(F.log_softmax(x, axis=1).data,
                                   F.log_softmax(shifted, axis=1).data, atol=1e-10)

    def test_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        assert np.all(np.isfinite(F.log_softmax(x, axis=1).data))

    def test_log_softmax_matches_log_of_softmax(self):
        x = make((4, 6), 4)
        exp = np.exp(x.data)
        np.testing.assert_allclose(
            F.log_softmax(x, axis=1).data, np.log(exp / exp.sum(axis=1, keepdims=True)),
            atol=1e-10)

    def test_log_softmax_gradients(self):
        x = make((2, 5), 5)
        assert_gradients_close(lambda: F.log_softmax(x, axis=1).sum(), [x], atol=1e-4)


class TestNormalize:
    def test_unit_norm_rows(self):
        x = make((6, 8), 1)
        normalized = F.normalize(x, axis=1)
        np.testing.assert_allclose(np.linalg.norm(normalized.data, axis=1), np.ones(6), rtol=1e-6)

    def test_gradients(self):
        x = make((3, 4), 2, shift=1.0)
        weights = Tensor(rng(9).standard_normal((3, 4)))
        assert_gradients_close(lambda: (F.normalize(x, axis=1) * weights).sum(), [x], atol=1e-4)

    def test_zero_vector_does_not_nan(self):
        x = Tensor(np.zeros((1, 4)), requires_grad=True)
        out = F.normalize(x, axis=1)
        assert np.all(np.isfinite(out.data))


class TestLinear:
    def test_linear_matches_manual(self):
        x, w, b = make((4, 3), 1), make((5, 3), 2), make((5,), 3)
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)

    def test_linear_gradients(self):
        x, w, b = make((4, 3), 1), make((5, 3), 2), make((5,), 3)
        assert_gradients_close(lambda: F.linear(x, w, b).sum(), [x, w, b])


class TestOneHot:
    def test_basic(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(encoded, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)


class TestBatchNormFunctional:
    def test_training_normalizes_batch(self):
        x = make((16, 4), 1, shift=3.0)
        gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        running_mean, running_var = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=0), np.ones(4), atol=1e-3)

    def test_running_stats_updated(self):
        x = make((32, 4), 2, shift=5.0)
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        running_mean, running_var = np.zeros(4), np.ones(4)
        F.batch_norm(x, gamma, beta, running_mean, running_var, training=True, momentum=1.0)
        np.testing.assert_allclose(running_mean, x.data.mean(axis=0), rtol=1e-10)

    def test_eval_uses_running_stats(self):
        x = make((8, 4), 3)
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        running_mean = np.full(4, 2.0)
        running_var = np.full(4, 4.0)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=False)
        np.testing.assert_allclose(out.data, (x.data - 2.0) / np.sqrt(4.0 + 1e-5), rtol=1e-6)

    def test_gradients_2d(self):
        x = make((6, 3), 4)
        gamma = Tensor(rng(5).uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng(6).standard_normal(3), requires_grad=True)

        def loss():
            running_mean, running_var = np.zeros(3), np.ones(3)
            out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
            return (out * out).sum()

        assert_gradients_close(loss, [x, gamma, beta], atol=1e-4)

    def test_4d_input(self):
        x = make((2, 3, 4, 4), 7)
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        running_mean, running_var = np.zeros(3), np.ones(3)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)

    def test_rejects_3d(self):
        x = make((2, 3, 4), 1)
        with pytest.raises(ValueError):
            F.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True)


class TestDistances:
    def test_pairwise_sq_distances_match_scipy_style(self):
        a, b = make((5, 3), 1), make((4, 3), 2)
        dist = F.pairwise_sq_distances(a, b).data
        expected = ((a.data[:, None, :] - b.data[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(dist, expected, atol=1e-8)

    def test_pairwise_gradients(self):
        a, b = make((3, 2), 3), make((2, 2), 4)
        assert_gradients_close(lambda: F.pairwise_sq_distances(a, b).sum(), [a, b], atol=1e-4)

    def test_self_distance_zero(self):
        a = make((4, 3), 5)
        dist = F.pairwise_sq_distances(a, a).data
        np.testing.assert_allclose(np.diag(dist), np.zeros(4), atol=1e-8)
