"""Unit tests for the trace/replay vectorization layer (repro.nn.trace).

The contract under test is bitwise equivalence: slice k of every replayed
op equals what the per-client path computes for client k.  Helpers build a
trace from a single-client function, replay it over K stacked clients, and
compare against K independent eager runs.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.nn import BatchedSGD, Tensor
from repro.nn import functional as F
from repro.nn.trace import BatchedReplay, Trace, UntraceableError

K = 5


def record_and_replay(fn, *input_arrays, params=None, k=K, seed=0):
    """Record ``fn`` on client 0's leaves, replay over ``k`` stacked clients.

    ``fn(*inputs, **params)`` must return a scalar TraceTensor.  Returns the
    replayed per-client outputs (k,) plus the stacked leaves used, so callers
    can compare against per-client eager recomputation.
    """
    rng = np.random.default_rng(seed)
    stacked_inputs = [np.stack([a + rng.standard_normal(a.shape) for _ in range(k)])
                      for a in input_arrays]
    params = params or {}
    stacked_params = {name: np.stack([v + rng.standard_normal(v.shape)
                                      for _ in range(k)])
                      for name, v in params.items()}

    trace = Trace()
    leaves = [trace.add_input(f"in{i}", stacked_inputs[i][0])
              for i in range(len(input_arrays))]
    param_leaves = {name: trace.add_param(name, stacked_params[name][0])
                    for name in params}
    out = fn(*leaves, **param_leaves)
    trace.set_output(out)
    trace.seal()

    replay = BatchedReplay(trace, k)
    leaf_tensors = {name: Tensor(stacked_params[name], requires_grad=True)
                    for name in params}
    loss, staged = replay.run(
        {f"in{i}": stacked_inputs[i] for i in range(len(input_arrays))},
        leaf_tensors, {})
    assert staged == {} or staged  # staged is an OrderedDict
    return loss, stacked_inputs, stacked_params, leaf_tensors


def assert_matches_per_client(fn, *input_arrays, params=None, k=K, seed=0):
    loss, stacked_inputs, stacked_params, leaf_tensors = record_and_replay(
        fn, *input_arrays, params=params, k=k, seed=seed)
    assert loss.data.shape == (k,) or loss.data.shape == ()
    loss.backward()
    for client in range(k):
        eager_inputs = [Tensor(s[client]) for s in stacked_inputs]
        eager_params = {name: Tensor(s[client], requires_grad=True)
                        for name, s in stacked_params.items()}
        eager = fn(*eager_inputs, **eager_params)
        np.testing.assert_array_equal(np.asarray(loss.data)[client], eager.data)
        eager.backward()
        for name, leaf in leaf_tensors.items():
            np.testing.assert_array_equal(leaf.grad[client],
                                          eager_params[name].grad)


class TestPrimitiveEquivalence:
    def test_arithmetic_chain(self):
        x = np.linspace(-1, 1, 12).reshape(3, 4)

        def fn(a, w):
            return ((a * w + 2.0) / 3.0 - 0.5).sum()

        assert_matches_per_client(fn, x, params={"w": np.ones((3, 4))})

    def test_reflected_ops(self):
        x = np.linspace(0.5, 2.0, 8).reshape(2, 4)

        def fn(a, w):
            return (1.0 - (2.0 / (a * w)) + (-a)).sum()

        assert_matches_per_client(fn, x, params={"w": np.full((2, 4), 1.5)})

    def test_matmul_and_rmatmul(self):
        x = np.linspace(-1, 1, 12).reshape(3, 4)
        const = np.linspace(0, 1, 12).reshape(4, 3)

        def fn(a, w):
            return ((a @ w) + (const @ a)[:4:2, :].sum()).sum()

        assert_matches_per_client(fn, x, params={"w": np.ones((4, 3))})

    def test_unary_transcendentals(self):
        x = np.linspace(0.1, 2.0, 8).reshape(2, 4)

        def fn(a, w):
            b = (a * w).exp()          # strictly positive for log/sqrt
            return (b.log() + b.sqrt() + b.relu() + b.clip(1.0, 1.5)).sum()

        assert_matches_per_client(fn, x, params={"w": np.full((2, 4), 0.7)})

    def test_reductions_and_reshapes(self):
        x = np.linspace(-2, 2, 24).reshape(2, 3, 4)

        def fn(a, w):
            b = (a * w).reshape((6, 4)).transpose()
            return b.max(axis=0).sum() + b.mean() + b.sum(axis=(0, 1)) + b.var()

        assert_matches_per_client(fn, x, params={"w": np.ones((2, 3, 4))})

    def test_broadcast_alignment_lower_rank_operand(self):
        # A rank-1 traced operand must align on trailing axes after the
        # client axis is added, exactly as numpy aligned it unbatched.
        x = np.linspace(-1, 1, 12).reshape(3, 4)

        def fn(a, w):
            row = a.sum(axis=0)        # shape (4,)
            return ((a * w) / (row.exp()) + row).sum()

        assert_matches_per_client(fn, x, params={"w": np.ones((3, 4))})

    def test_concat_and_getitem(self):
        x = np.linspace(-1, 1, 8).reshape(2, 4)

        def fn(a, w):
            b = Tensor.concat([a * w, a], axis=0)       # (4, 4)
            picked = b[np.arange(4), np.array([1, 0, 3, 2])]
            return picked.sum() + b[1:, :2].sum()

        assert_matches_per_client(fn, x, params={"w": np.ones((2, 4))})

    def test_advanced_index_feeds_flat_reduction(self):
        # Regression: the replayed advanced-index result must be made
        # C-contiguous, or the downstream pairwise-summed reduction blocks
        # differently and the loss drifts by an ulp.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16))

        def fn(a, w):
            b = a * w
            picked = b[np.arange(16), np.arange(15, -1, -1)]
            return picked.mean()

        assert_matches_per_client(fn, x, params={"w": rng.standard_normal((16, 16))})

    def test_nt_xent_composite(self):
        from repro.ssl import nt_xent
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))

        def fn(a, w):
            return nt_xent(a * w, a + w, 0.5)

        assert_matches_per_client(fn, x, params={"w": rng.standard_normal((4, 6))})


def _client_data(k, seed=0):
    """Different inputs, row selections and parameters for every client,
    so any per-client value captured as a constant at record time shows."""
    rng = np.random.default_rng(seed)
    inputs = {"x": rng.standard_normal((k, 5, 4)),
              "v": rng.standard_normal((k, 4)),
              "mask": (rng.random((k, 5, 1)) > 0.5).astype(np.float64)}
    indices = {"rows": np.stack([rng.permutation(5)[:3] for _ in range(k)])}
    params = {"w": rng.standard_normal((k, 4, 4))}
    return inputs, indices, params


def _planned(t, w):
    """A loss in the shape of Calibre's: per-client masks, a matrix-vector
    product against a per-client vector, per-client row selection, and
    named per-batch terms next to the scalar loss."""
    h = t["x"] @ w                                  # (5, 4)
    blended = h * t["mask"] + 0.5 * (1.0 - t["mask"])
    scores = blended @ t["v"]                       # traced vector, right
    mixed = t["v"] @ w                              # traced vector, left
    fixed = h @ np.linspace(-1.0, 1.0, 4)           # constant vector
    picked = blended[t["rows"]]                     # (3, 4) per-client rows
    term = (picked * picked).sum() / 3.0
    loss = (scores.exp().sum() + mixed.relu().sum() + fixed.sum()
            + term - h.max().detach())
    return loss, {"term": term, "scores": scores}


class TestPlannedInputsAndOutputs:
    """Named extra outputs, per-client row selection as an input, and
    matrix-vector products: slice k of every output and of every
    parameter gradient equals client k's eager computation, bitwise."""

    def _record(self, inputs, indices, params):
        trace = Trace()
        leaves = {name: trace.add_input(name, value[0])
                  for name, value in inputs.items()}
        leaves.update({name: trace.add_index(name, value[0])
                       for name, value in indices.items()})
        weight = trace.add_param("w", params["w"][0])
        loss, terms = _planned(leaves, weight)
        trace.set_output(loss)
        for name, term in terms.items():
            trace.add_output(name, term)
        trace.seal()
        return trace

    @pytest.mark.parametrize("k", [1, 3])
    def test_replay_matches_each_client(self, k):
        inputs, indices, params = _client_data(k)
        trace = self._record(inputs, indices, params)
        replay = BatchedReplay(trace, k)
        weight = Tensor(params["w"].copy(), requires_grad=True)
        loss, _ = replay.run({**inputs, **indices}, {"w": weight}, {})
        assert list(replay.outputs) == ["term", "scores"]
        loss.backward()
        for client in range(k):
            eager_inputs = {name: Tensor(value[client])
                            for name, value in inputs.items()}
            eager_inputs.update({name: value[client]
                                 for name, value in indices.items()})
            eager_w = Tensor(params["w"][client].copy(), requires_grad=True)
            eager_loss, eager_terms = _planned(eager_inputs, eager_w)
            eager_loss.backward()
            np.testing.assert_array_equal(loss.data[client], eager_loss.data)
            for name, term in eager_terms.items():
                np.testing.assert_array_equal(replay.outputs[name].data[client],
                                              term.data)
            np.testing.assert_array_equal(weight.grad[client], eager_w.grad)

    def test_outputs_only_trace_replays_without_loss(self):
        inputs, _, params = _client_data(2)
        trace = Trace()
        x = trace.add_input("x", inputs["x"][0])
        trace.add_output("h", x @ trace.add_param("w", params["w"][0]))
        trace.seal()
        replay = BatchedReplay(trace, 2)
        loss, _ = replay.run({"x": inputs["x"]},
                             {"w": Tensor(params["w"])}, {})
        assert loss is None
        np.testing.assert_array_equal(replay.outputs["h"].data[1],
                                      inputs["x"][1] @ params["w"][1])

    def test_index_inputs_must_be_integer_vectors(self):
        trace = Trace()
        with pytest.raises(UntraceableError):
            trace.add_index("rows", np.array([0.0, 1.0]))
        with pytest.raises(UntraceableError):
            trace.add_index("rows", np.zeros((2, 2), dtype=np.int64))

    def test_vector_dot_product_rejected(self):
        trace = Trace()
        v = trace.add_input("v", np.ones(3))
        with pytest.raises(UntraceableError):
            v @ v

    def test_named_output_must_be_traced(self):
        trace = Trace()
        trace.add_input("x", np.ones(3))
        with pytest.raises(UntraceableError):
            trace.add_output("constant", Tensor(np.ones(3)))


class TestUntraceable:
    def _leaf(self):
        trace = Trace()
        return trace, trace.add_input("x", np.ones((4, 3)))

    def test_bool_mask_rejected(self):
        trace, x = self._leaf()
        with pytest.raises(UntraceableError):
            x[np.array([True, False, True, False])]

    def test_none_and_ellipsis_rejected(self):
        trace, x = self._leaf()
        with pytest.raises(UntraceableError):
            x[None]
        with pytest.raises(UntraceableError):
            x[..., 0]

    def test_separated_advanced_indices_rejected(self):
        trace = Trace()
        x = trace.add_input("x", np.ones((3, 4, 3)))
        with pytest.raises(UntraceableError):
            x[np.array([0, 1]), :, np.array([0, 1])]

    def test_eval_batch_norm_rejected_while_tracing(self):
        trace, x = self._leaf()
        with pytest.raises(UntraceableError):
            F.batch_norm(x, np.zeros(3), np.ones(3), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), training=False)

    def test_conv_has_no_replay_rule(self):
        trace = Trace()
        x = trace.add_input("x", np.ones((1, 1, 4, 4)))
        with pytest.raises(UntraceableError, match="'conv2d' has no replay rule"):
            F.conv2d(x, Tensor(np.ones((1, 1, 2, 2))), stride=1, padding=0)
        assert trace.ops == []

    def test_item_and_backward_rejected(self):
        trace, x = self._leaf()
        with pytest.raises(UntraceableError):
            x.sum().item()
        with pytest.raises(UntraceableError):
            x.sum().backward()

    def test_scalar_output_required(self):
        trace, x = self._leaf()
        with pytest.raises(UntraceableError):
            trace.set_output(x.sum(axis=0))

    def test_replay_validates_leaf_shapes(self):
        trace, x = self._leaf()
        trace.set_output(x.sum())
        trace.seal()
        replay = BatchedReplay(trace, 3)
        with pytest.raises(UntraceableError):
            replay.run({"x": np.ones((2, 4, 3))}, {}, {})  # wrong K
        with pytest.raises(UntraceableError):
            replay.run({"x": np.ones((3, 4, 2))}, {}, {})  # wrong shape
        with pytest.raises(UntraceableError, match="float32"):
            replay.run({"x": np.ones((3, 4, 3), np.float32)}, {}, {})  # wrong dtype


class TestTraceLifecycle:
    def _sealed(self):
        trace = Trace()
        x = trace.add_input("x", np.ones((2, 3)))
        w = trace.add_param("w", np.full((2, 3), 2.0))
        trace.set_output((x * w).sum())
        trace.seal()
        return trace

    def test_sealed_trace_rejects_recording(self):
        trace = Trace()
        x = trace.add_input("x", np.ones((2, 3)))
        trace.set_output(x.sum())
        trace.seal()
        with pytest.raises(UntraceableError, match="sealed"):
            x * 2.0

    def test_sealed_trace_pickles_and_deepcopies(self):
        trace = self._sealed()
        for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
            replay = BatchedReplay(clone, 2)
            w = Tensor(np.full((2, 2, 3), 2.0), requires_grad=True)
            loss, _ = replay.run({"x": np.ones((2, 2, 3))}, {"w": w}, {})
            np.testing.assert_array_equal(loss.data, np.full(2, 12.0))

    def test_unsealed_trace_cannot_replay(self):
        trace = Trace()
        trace.add_input("x", np.ones(3))
        with pytest.raises(UntraceableError):
            BatchedReplay(trace, 2)


class TestBatchedSGD:
    def test_validates_leading_axis(self):
        good = Tensor(np.zeros((4, 3)), requires_grad=True)
        BatchedSGD([good], lr=0.1, num_clients=4)
        bad = Tensor(np.zeros((3, 4)), requires_grad=True)
        with pytest.raises(ValueError):
            BatchedSGD([bad], lr=0.1, num_clients=4)
        scalar = Tensor(np.zeros(()), requires_grad=True)
        with pytest.raises(ValueError):
            BatchedSGD([scalar], lr=0.1, num_clients=4)

    def test_stacked_step_matches_per_client_sgd(self):
        from repro.nn.optim import SGD
        rng = np.random.default_rng(0)
        stacked = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
        grads = rng.standard_normal((3, 2, 2))
        singles = [Tensor(stacked.data[i].copy(), requires_grad=True)
                   for i in range(3)]
        batched = BatchedSGD([stacked], lr=0.1, momentum=0.9,
                             weight_decay=0.01, num_clients=3)
        for _ in range(3):
            stacked.grad = grads.copy()
            batched.step()
        for i, single in enumerate(singles):
            opt = SGD([single], lr=0.1, momentum=0.9, weight_decay=0.01)
            for _ in range(3):
                single.grad = grads[i].copy()
                opt.step()
            np.testing.assert_array_equal(stacked.data[i], single.data)
