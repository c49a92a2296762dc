"""Gradient and semantics tests for the core Tensor operations."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import GraphReleasedError, Tensor, no_grad, unbroadcast

from ..helpers import assert_gradients_close, rng


def make(shape, seed=0, scale=1.0, shift=0.0):
    data = rng(seed).standard_normal(shape) * scale + shift
    return Tensor(data, requires_grad=True)


class TestArithmetic:
    def test_add_values(self):
        a, b = make((3, 4), 1), make((3, 4), 2)
        np.testing.assert_allclose((a + b).data, a.data + b.data)

    def test_add_gradients(self):
        a, b = make((3, 4), 1), make((3, 4), 2)
        assert_gradients_close(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast_gradients(self):
        a, b = make((3, 4), 1), make((4,), 2)
        assert_gradients_close(lambda: (a + b).sum(), [a, b])

    def test_add_scalar(self):
        a = make((2, 2), 3)
        np.testing.assert_allclose((a + 2.5).data, a.data + 2.5)

    def test_sub_gradients(self):
        a, b = make((5,), 1), make((5,), 2)
        assert_gradients_close(lambda: (a - b).sum(), [a, b])

    def test_rsub(self):
        a = make((3,), 1)
        np.testing.assert_allclose((1.0 - a).data, 1.0 - a.data)

    def test_mul_gradients(self):
        a, b = make((3, 4), 1), make((3, 4), 2)
        assert_gradients_close(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast_gradients(self):
        a, b = make((2, 3, 4), 1), make((3, 1), 2)
        assert_gradients_close(lambda: (a * b).sum(), [a, b])

    def test_div_gradients(self):
        a, b = make((3, 4), 1), make((3, 4), 2, shift=3.0)
        assert_gradients_close(lambda: (a / b).sum(), [a, b])

    def test_rdiv(self):
        a = make((3,), 1, shift=4.0)
        np.testing.assert_allclose((2.0 / a).data, 2.0 / a.data)

    def test_neg_gradients(self):
        a = make((4,), 5)
        assert_gradients_close(lambda: (-a).sum(), [a])

    def test_matmul_2d_gradients(self):
        a, b = make((3, 4), 1), make((4, 5), 2)
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])

    def test_matmul_values(self):
        a, b = make((2, 3), 1), make((3, 2), 2)
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)


class TestNonlinearities:
    @pytest.mark.parametrize("name", ["exp", "relu", "sqrt", "log"])
    def test_unary_gradients(self, name):
        shift = 2.5 if name in ("sqrt", "log") else 0.0
        a = make((3, 4), 7, shift=shift)
        assert_gradients_close(lambda: getattr(a, name)().sum(), [a], atol=1e-4)

    def test_relu_zeroes_negatives(self):
        a = Tensor([-1.0, 0.5, -0.2, 2.0])
        np.testing.assert_allclose(a.relu().data, [0.0, 0.5, 0.0, 2.0])

    def test_clip_gradients_inside_region(self):
        a = make((6,), 9)
        assert_gradients_close(lambda: a.clip(-0.5, 0.5).sum(), [a], atol=1e-4)

    def test_clip_values(self):
        a = Tensor([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(a.clip(-1.0, 1.0).data, [-1.0, 0.0, 1.0])


class TestReductions:
    def test_sum_all_gradients(self):
        a = make((3, 4), 1)
        assert_gradients_close(lambda: a.sum(), [a])

    def test_sum_axis_gradients(self):
        a = make((3, 4), 1)
        assert_gradients_close(lambda: a.sum(axis=0).sum(), [a])
        assert_gradients_close(lambda: a.sum(axis=1, keepdims=True).sum(), [a])

    def test_sum_multi_axis(self):
        a = make((2, 3, 4), 2)
        assert_gradients_close(lambda: a.sum(axis=(0, 2)).sum(), [a])

    def test_mean_gradients(self):
        a = make((3, 4), 1)
        assert_gradients_close(lambda: a.mean(), [a])
        assert_gradients_close(lambda: a.mean(axis=1).sum(), [a])

    def test_var_matches_numpy(self):
        a = make((5, 6), 3)
        np.testing.assert_allclose(a.var().data, a.data.var(), rtol=1e-10)

    def test_var_gradients(self):
        a = make((4, 3), 3)
        assert_gradients_close(lambda: a.var(axis=0).sum(), [a], atol=1e-4)

    def test_max_gradients_unique(self):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        a = Tensor(data, requires_grad=True)
        assert_gradients_close(lambda: a.max(axis=1).sum(), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        out = a.max(axis=1)
        out.backward()
        np.testing.assert_allclose(a.grad, np.full((1, 3), 1.0 / 3.0))


class TestShapeOps:
    def test_reshape_gradients(self):
        a = make((3, 4), 1)
        assert_gradients_close(lambda: (a.reshape(2, 6) * 2.0).sum(), [a])

    def test_flatten(self):
        a = make((2, 3, 4), 1)
        assert a.flatten(1).shape == (2, 12)

    def test_transpose_gradients(self):
        a = make((2, 3, 4), 1)
        assert_gradients_close(lambda: (a.transpose(2, 0, 1) * 3.0).sum(), [a])

    def test_transpose_default_reverses(self):
        a = make((2, 3), 1)
        assert a.transpose().shape == (3, 2)

    def test_getitem_slice_gradients(self):
        a = make((5, 4), 1)
        assert_gradients_close(lambda: a[1:4].sum(), [a])

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        out = a[np.array([0, 0, 2])].sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0, 0.0])

    def test_concat_gradients(self):
        a, b = make((2, 3), 1), make((4, 3), 2)
        assert_gradients_close(lambda: (Tensor.concat([a, b], axis=0) * 2.0).sum(), [a, b])

    def test_concat_axis1(self):
        a, b = make((2, 3), 1), make((2, 5), 2)
        assert Tensor.concat([a, b], axis=1).shape == (2, 8)

    def test_expand_dims_gradients(self):
        a = make((3, 4), 1)
        assert_gradients_close(lambda: a.expand_dims(1).sum(), [a])


class TestAutogradMechanics:
    def test_no_grad_blocks_graph(self):
        a = make((3,), 1)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_backward_requires_grad(self):
        a = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            a.sum().backward()

    def test_gradient_accumulates_over_calls(self):
        a = make((3,), 1)
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 2.0))

    def test_diamond_graph_gradient(self):
        a = make((3,), 1)
        b = a * 2.0
        out = (b + b * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2.0 + 4.0 * a.data)

    def test_detach_cuts_graph(self):
        a = make((3,), 1)
        out = (a.detach() * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, a.data)

    def test_backward_with_seed(self):
        a = make((3,), 1)
        out = a * 1.0
        out.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(a.grad, [1.0, 2.0, 3.0])


class TestGraphRelease:
    def test_intermediates_die_when_backward_returns(self):
        # Without the release every non-leaf node is a reference cycle
        # (its backward closure holds the node), freed only by the cyclic
        # GC; with the GC off, the intermediate must still die at once.
        a = make((4, 3), 1)
        gc.disable()
        try:
            hidden = (a * 2.0).exp()
            watch = weakref.ref(hidden)
            loss = hidden.sum()
            del hidden
            assert watch() is not None  # the graph still holds it
            loss.backward()
            assert watch() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(a.grad, 2.0 * np.exp(2.0 * a.data))

    def test_second_backward_raises(self):
        a = make((3,), 1)
        loss = (a * a).sum()
        loss.backward()
        with pytest.raises(GraphReleasedError):
            loss.backward()

    def test_new_graph_over_released_node_raises(self):
        a = make((3,), 1)
        hidden = a * 3.0
        hidden.sum().backward()
        with pytest.raises(GraphReleasedError):
            (hidden * 2.0).sum().backward()

    def test_leaves_stay_usable(self):
        a = make((3,), 1)
        (a * 1.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 3.0))


class TestUnbroadcast:
    @given(
        st.sampled_from([(3, 4), (1, 4), (3, 1), (1, 1), (4,), (1,)]),
    )
    @settings(max_examples=20, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, shape):
        target = np.zeros(shape)
        grad = np.ones(np.broadcast_shapes(shape, (3, 4)))
        reduced = unbroadcast(grad, shape)
        assert reduced.shape == shape
        # Each entry counts how many broadcast copies mapped onto it.
        expected_total = grad.size
        assert reduced.sum() == pytest.approx(expected_total)

    def test_identity_when_shapes_match(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)) is grad


class TestConstructors:
    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype in (np.float32, np.float64)
