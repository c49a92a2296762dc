"""Tests for the SGD optimizers."""

import numpy as np
import pytest

from repro.nn import SGD, Linear, Parameter, Tensor

from ..helpers import rng


def quadratic_param(value=5.0):
    return Parameter(np.array([value]))


def minimize(optimizer, param, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        optimizer.step()
    return float(param.data[0])


class TestSGD:
    def test_plain_sgd_matches_manual_update(self):
        param = quadratic_param(2.0)
        opt = SGD([param], lr=0.1)
        (param * param).sum().backward()
        opt.step()
        assert param.data[0] == pytest.approx(2.0 - 0.1 * 4.0)

    def test_converges_on_quadratic(self):
        param = quadratic_param()
        assert abs(minimize(SGD([param], lr=0.1), param)) < 1e-6

    def test_momentum_converges(self):
        param = quadratic_param()
        assert abs(minimize(SGD([param], lr=0.05, momentum=0.9), param, steps=400)) < 1e-6

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.array([1.0]))
        opt = SGD([param], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        param.grad = np.array([0.0])
        opt.step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_skips_parameters_without_grad(self):
        a, b = quadratic_param(1.0), quadratic_param(1.0)
        opt = SGD([a, b], lr=0.1)
        (a * a).sum().backward()
        opt.step()
        assert b.data[0] == 1.0

    def test_invalid_hyperparameters(self):
        param = quadratic_param()
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_trains_linear_regression(self):
        generator = rng(0)
        x = Tensor(generator.standard_normal((64, 3)))
        true_w = generator.standard_normal((1, 3))
        y = Tensor(x.data @ true_w.T)
        layer = Linear(3, 1, rng=generator)
        opt = SGD(layer.parameters(), lr=0.05, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            diff = layer(x) - y
            (diff * diff).mean().backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.02)
