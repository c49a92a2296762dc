"""Tests for the Module system: registration, traversal, state dicts, layers."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Identity,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
)

from ..helpers import assert_gradients_close, rng


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        generator = rng(seed)
        self.fc1 = Linear(4, 8, rng=generator)
        self.fc2 = Linear(8, 3, rng=generator)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestRegistration:
    def test_parameters_found(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3

    def test_buffers_found(self):
        bn = BatchNorm1d(5)
        names = [name for name, _ in bn.named_buffers()]
        assert names == ["running_mean", "running_var"]

    def test_nested_modules(self):
        seq = Sequential(TinyNet(), ReLU())
        module_names = [name for name, _ in seq.named_modules()]
        assert "0.fc1" in module_names

    def test_reassignment_replaces_parameter(self):
        net = TinyNet()
        net.fc1 = Linear(4, 8)
        assert len(list(net.named_parameters())) == 4


class TestTrainEval:
    def test_train_eval_propagates(self):
        seq = Sequential(TinyNet(), BatchNorm1d(3))
        seq.eval()
        assert not seq[0].training and not seq[1].training
        seq.train()
        assert seq[0].training

    def test_requires_grad_toggle(self):
        net = TinyNet()
        net.requires_grad_(False)
        assert all(not p.requires_grad for p in net.parameters())
        net.requires_grad_(True)
        assert all(p.requires_grad for p in net.parameters())

    def test_zero_grad(self):
        net = TinyNet()
        x = Tensor(rng(1).standard_normal((2, 4)))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_round_trip(self):
        net_a, net_b = TinyNet(seed=1), TinyNet(seed=2)
        net_b.load_state_dict(net_a.state_dict())
        x = Tensor(rng(3).standard_normal((5, 4)))
        np.testing.assert_allclose(net_a(x).data, net_b(x).data)

    def test_state_dict_is_a_copy(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"][...] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)

    def test_strict_missing_raises(self):
        net = TinyNet()
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_strict_unexpected_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_non_strict_partial_load(self):
        net = TinyNet(seed=1)
        fresh = TinyNet(seed=2)
        partial = {"fc1.weight": net.fc1.weight.data.copy()}
        fresh.load_state_dict(partial, strict=False)
        np.testing.assert_allclose(fresh.fc1.weight.data, net.fc1.weight.data)

    def test_shape_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_buffers_in_state_dict(self):
        bn = BatchNorm1d(4)
        state = bn.state_dict()
        assert set(state) == {"weight", "bias", "running_mean", "running_var"}

    def test_buffer_load_round_trip(self):
        bn_a, bn_b = BatchNorm1d(4), BatchNorm1d(4)
        bn_a.running_mean[...] = 7.0
        bn_b.load_state_dict(bn_a.state_dict())
        np.testing.assert_allclose(bn_b.running_mean, np.full(4, 7.0))


class TestContainers:
    def test_sequential_forward(self):
        seq = Sequential(Linear(3, 5, rng=rng(0)), ReLU(), Linear(5, 2, rng=rng(1)))
        out = seq(Tensor(rng(2).standard_normal((4, 3))))
        assert out.shape == (4, 2)

    def test_sequential_indexing(self):
        seq = Sequential(Identity(), ReLU())
        assert isinstance(seq[0], Identity)
        assert len(seq) == 2

    def test_sequential_append(self):
        seq = Sequential(Identity())
        seq.append(ReLU())
        assert len(seq) == 2


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(7, 3, rng=rng(0))
        out = layer(Tensor(rng(1).standard_normal((5, 7))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv_layer_shapes(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng(0))
        out = layer(Tensor(rng(1).standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_batchnorm2d_validates_channels(self):
        bn = BatchNorm2d(4)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((2, 3, 4, 4))))

    def test_batchnorm1d_validates_shape(self):
        bn = BatchNorm1d(4)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((2, 3))))

    def test_flatten_layer(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4))))
        assert out.shape == (2, 12)

    def test_end_to_end_gradients(self):
        net = TinyNet(seed=3)
        x = Tensor(rng(4).standard_normal((3, 4)), requires_grad=True)
        assert_gradients_close(lambda: (net(x) * net(x)).sum(), [x, net.fc1.weight, net.fc2.bias],
                               atol=1e-4)
