"""Tests for ResNet / SmallConv / MLP encoders and supervised losses."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Linear,
    MLPEncoder,
    SGD,
    Sequential,
    SmallConvEncoder,
    Tensor,
    accuracy,
    cross_entropy,
    resnet9,
    resnet18,
)

from ..helpers import rng


class TestResNet:
    def test_resnet18_feature_dim(self):
        encoder = resnet18(width=8, rng=rng(0))
        assert encoder.feature_dim == 64  # 8 * 2**3

    def test_resnet18_forward_shape(self):
        encoder = resnet18(width=4, rng=rng(0))
        out = encoder(Tensor(rng(1).standard_normal((2, 3, 16, 16))))
        assert out.shape == (2, 32)

    def test_resnet9_forward_shape(self):
        encoder = resnet9(width=4, rng=rng(0))
        out = encoder(Tensor(rng(1).standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 16)

    def test_paper_configuration_dim(self):
        # width=64 gives the paper's 512-d features; build only, no forward
        encoder = resnet18(width=64, rng=rng(0))
        assert encoder.feature_dim == 512

    def test_gradients_flow_to_first_conv(self):
        encoder = resnet9(width=2, rng=rng(0))
        out = encoder(Tensor(rng(1).standard_normal((2, 3, 8, 8))))
        (out * out).sum().backward()
        assert encoder.conv1.weight.grad is not None
        assert np.any(encoder.conv1.weight.grad != 0)

    def test_eval_mode_deterministic(self):
        encoder = resnet9(width=2, rng=rng(0))
        encoder.eval()
        x = Tensor(rng(1).standard_normal((2, 3, 8, 8)))
        np.testing.assert_allclose(encoder(x).data, encoder(x).data)


class TestSmallConv:
    def test_forward_shape(self):
        encoder = SmallConvEncoder(width=4, rng=rng(0))
        out = encoder(Tensor(rng(1).standard_normal((3, 3, 12, 12))))
        assert out.shape == (3, 16)

    def test_state_dict_round_trip(self):
        a = SmallConvEncoder(width=4, rng=rng(0))
        b = SmallConvEncoder(width=4, rng=rng(1))
        b.load_state_dict(a.state_dict())
        a.eval()
        b.eval()
        x = Tensor(rng(2).standard_normal((2, 3, 12, 12)))
        np.testing.assert_allclose(a(x).data, b(x).data)


class TestMLP:
    def test_encoder_shape(self):
        encoder = MLPEncoder(input_dim=48, hidden_dims=(32, 16), rng=rng(0))
        out = encoder(Tensor(rng(1).standard_normal((5, 3, 4, 4))))
        assert out.shape == (5, 16)
        assert encoder.feature_dim == 16

    def test_requires_hidden_layers(self):
        with pytest.raises(ValueError):
            MLPEncoder(input_dim=10, hidden_dims=())

    @pytest.mark.parametrize("clients", [1, 5])
    def test_eval_stack_equals_lone_forwards_bitwise(self, clients):
        encoder = MLPEncoder(input_dim=48, hidden_dims=(32, 16), rng=rng(0))
        generator = rng(2)
        for _, buffer in encoder.named_buffers():
            buffer[...] = generator.random(buffer.shape) + 0.5
        encoder.eval()
        stack = generator.standard_normal((clients, 7, 3, 4, 4))
        out = encoder(Tensor(stack)).data
        assert out.shape == (clients, 7, 16)
        for k in range(clients):
            assert out[k].tobytes() == encoder(Tensor(stack[k])).data.tobytes()

    def test_training_batchnorm_rejects_a_client_axis(self):
        layer = BatchNorm1d(4)
        with pytest.raises(ValueError, match="BatchNorm1d expected"):
            layer(Tensor(np.zeros((2, 3, 4))))
        layer.eval()
        assert layer(Tensor(np.zeros((2, 3, 4)))).shape == (2, 3, 4)

    def test_classifier_trains_on_blobs(self):
        generator = rng(0)
        centers = generator.standard_normal((3, 10)) * 3.0
        x_data = np.concatenate([centers[k] + 0.3 * generator.standard_normal((30, 10))
                                 for k in range(3)])
        y = np.repeat(np.arange(3), 30)
        model = Sequential(MLPEncoder(10, (16,), rng=generator),
                           Linear(16, 3, rng=generator))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(60):
            opt.zero_grad()
            loss = cross_entropy(model(Tensor(x_data)), y)
            loss.backward()
            opt.step()
        model.eval()
        assert accuracy(model(Tensor(x_data)), y) > 0.95


class TestSupervisedLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(10.0))

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.eye(3) * 100.0, requires_grad=True)
        loss = cross_entropy(logits, np.arange(3))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient_is_softmax_minus_target(self):
        logits = Tensor(rng(0).standard_normal((5, 4)), requires_grad=True)
        labels = np.array([0, 1, 2, 3, 0])
        cross_entropy(logits, labels).backward()
        exp = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        target = np.eye(4)[labels]
        np.testing.assert_allclose(logits.grad, (probs - target) / 5.0, atol=1e-8)

    def test_label_smoothing_increases_uniform_target_loss(self):
        logits = Tensor(np.eye(3) * 10.0, requires_grad=True)
        plain = cross_entropy(logits, np.arange(3)).item()
        smoothed = cross_entropy(logits, np.arange(3), label_smoothing=0.2).item()
        assert smoothed > plain

    def test_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(5, dtype=int))

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2.0 / 3.0)
        assert accuracy(logits[:0], np.array([], dtype=int)) == 0.0
