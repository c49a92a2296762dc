"""Finite-difference validation of conv2d (the costliest primitive) and global pooling."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from ..helpers import assert_gradients_close, rng


def make(shape, seed=0):
    return Tensor(rng(seed).standard_normal(shape), requires_grad=True)


def squared(out):
    return (out * out).sum()


class TestConv2dForward:
    def test_identity_kernel(self):
        x = make((1, 1, 4, 4), 1)
        w = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        out = F.conv2d(x, w)
        np.testing.assert_allclose(out.data, x.data)

    def test_matches_naive_convolution(self):
        x = make((2, 3, 5, 5), 2)
        w = make((4, 3, 3, 3), 3)
        b = make((4,), 4)
        out = F.conv2d(x, w, b, stride=1, padding=1).data

        padded = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros((2, 4, 5, 5))
        for n in range(2):
            for o in range(4):
                for i in range(5):
                    for j in range(5):
                        window = padded[n, :, i : i + 3, j : j + 3]
                        expected[n, o, i, j] = (window * w.data[o]).sum() + b.data[o]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_stride_two_shape(self):
        x = make((1, 2, 8, 8), 5)
        w = make((3, 2, 3, 3), 6)
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 3, 4, 4)

    def test_channel_mismatch_raises(self):
        x = make((1, 2, 4, 4), 1)
        w = make((3, 5, 3, 3), 2)
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_empty_output_raises(self):
        x = make((1, 1, 2, 2), 1)
        w = make((1, 1, 5, 5), 2)
        with pytest.raises(ValueError):
            F.conv2d(x, w)


class TestConv2dGradients:
    def test_gradients_basic(self):
        x = make((2, 2, 4, 4), 1)
        w = make((3, 2, 3, 3), 2)
        b = make((3,), 3)
        assert_gradients_close(lambda: F.conv2d(x, w, b, padding=1).sum(), [x, w, b], atol=1e-4)

    def test_gradients_stride_two_no_bias(self):
        x = make((1, 2, 6, 6), 4)
        w = make((2, 2, 3, 3), 5)
        assert_gradients_close(
            lambda: squared(F.conv2d(x, w, stride=2, padding=1)), [x, w], atol=1e-4
        )

    def test_gradients_1x1_kernel(self):
        x = make((2, 3, 3, 3), 6)
        w = make((4, 3, 1, 1), 7)
        assert_gradients_close(lambda: F.conv2d(x, w).sum(), [x, w], atol=1e-4)


class TestGlobalAvgPool:
    def test_global_avg_pool(self):
        x = make((2, 3, 5, 5), 11)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))

    def test_global_avg_pool_gradients(self):
        x = make((1, 2, 3, 3), 12)
        assert_gradients_close(lambda: squared(F.global_avg_pool2d(x)), [x], atol=1e-4)
