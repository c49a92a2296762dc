"""One case per op table entry: its VJP, its replay rule, or its refusal.

Every case is a small loss ``fn(x, w)`` built around one kind, where ``x``
is per-step data and ``w`` a parameter.  Three checks run over the table:

* every VJP matches central finite differences;
* every kind with a replay rule, recorded on one client and replayed over
  K=3 clients, equals three eager runs bitwise in values and gradients
  (and, for ``bn_update``, in the staged buffer rows);
* recording a kind without a rule raises an ``UntraceableError`` that
  names the kind.

``CASES`` must key exactly the op table, so an entry cannot be added (or
given a replay rule) without a case here.
"""

import re
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.ops import OPS
from repro.nn.trace import BatchedReplay, Trace, UntraceableError

from ..helpers import assert_gradients_close, rng
from .test_trace import assert_matches_per_client

K = 3


class Case(NamedTuple):
    fn: Callable
    x: np.ndarray
    w: np.ndarray
    #: Channel count of the batch-norm buffers ``fn(x, w, mean, var)``
    #: updates; ``None`` for a plain ``fn(x, w)``.
    buffers: Optional[int] = None


def normal(*shape, seed=0):
    return rng(seed).standard_normal(shape)


WEIGHTS = np.linspace(-1.0, 1.0, 12).reshape(3, 4)


def _batch_norm(axes_shape):
    def fn(x, w, running_mean, running_var):
        channels = running_mean.shape[0]
        out = F.batch_norm(x * w, Tensor(np.linspace(0.5, 1.5, channels)),
                           Tensor(np.linspace(-0.2, 0.2, channels)),
                           running_mean, running_var, training=True)
        return (out * Tensor(normal(*axes_shape, seed=9))).sum()
    return fn


CASES = {
    "add": {
        "same-shape": Case(lambda x, w: ((x + w) * WEIGHTS).sum(), normal(3, 4), normal(3, 4, seed=1)),
        "broadcast-param": Case(lambda x, w: ((x + w) * WEIGHTS).sum(), normal(3, 4), normal(4, seed=1)),
    },
    "mul": {
        "same-shape": Case(lambda x, w: (x * w).sum(), normal(3, 4), normal(3, 4, seed=1)),
        "broadcast": Case(lambda x, w: (x * w).sum(), normal(2, 3, 4), normal(3, 1, seed=1)),
    },
    "truediv": {
        "both": Case(lambda x, w: (x / (w * w + 1.0) + 2.0 / (w * w + 1.0)).sum(),
                     normal(3, 4), normal(3, 4, seed=1)),
    },
    "neg": {
        "unary": Case(lambda x, w: (-(x * w)).sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "matmul": {
        "matrix": Case(lambda x, w: ((x @ w) * normal(3, 2, seed=2)).sum(), normal(3, 4), normal(4, 2, seed=1)),
        "vector-right": Case(lambda x, w: ((x @ w) * normal(3, seed=2)).sum(), normal(3, 4), normal(4, seed=1)),
        "vector-left": Case(lambda x, w: ((x @ w) * normal(2, seed=2)).sum(), normal(4), normal(4, 2, seed=1)),
    },
    "exp": {
        "unary": Case(lambda x, w: (x * w).exp().sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "log": {
        "unary": Case(lambda x, w: (x * x + w * w + 1.0).log().sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "sqrt": {
        "unary": Case(lambda x, w: (x * x + w * w + 1.0).sqrt().sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "relu": {
        "unary": Case(lambda x, w: ((x * w).relu() * WEIGHTS).sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "clip": {
        "both-bounds": Case(lambda x, w: ((x * w).clip(-0.5, 0.5) * WEIGHTS).sum(),
                            normal(3, 4), normal(3, 4, seed=1)),
        "low-only": Case(lambda x, w: ((x * w).clip(low=0.0) * WEIGHTS).sum(),
                         normal(3, 4), normal(3, 4, seed=1)),
    },
    "detach": {
        "stops-gradient": Case(lambda x, w: ((x * w).detach() * w).sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "sum": {
        "all": Case(lambda x, w: ((x * w).sum() * (x * w)).sum(), normal(3, 4), normal(3, 4, seed=1)),
        "axis": Case(lambda x, w: ((x * w).sum(axis=-1) * normal(2, 3, seed=2)).sum(),
                     normal(2, 3, 4), normal(3, 4, seed=1)),
        "axes-keepdims": Case(lambda x, w: ((x * w).sum(axis=(0, 2), keepdims=True) * normal(1, 3, 1, seed=2)).sum(),
                              normal(2, 3, 4), normal(3, 4, seed=1)),
    },
    "max": {
        "all": Case(lambda x, w: (x * w).max() * 1.0, normal(3, 4), normal(3, 4, seed=1)),
        "axis": Case(lambda x, w: ((x * w).max(axis=0) * normal(4, seed=2)).sum(), normal(3, 4), normal(3, 4, seed=1)),
    },
    "reshape": {
        "regroup": Case(lambda x, w: ((x * w).reshape(6, -1) * normal(6, 2, seed=2)).sum(),
                        normal(3, 4), normal(3, 4, seed=1)),
    },
    "transpose": {
        "reverse": Case(lambda x, w: ((x * w).transpose() * WEIGHTS.T).sum(), normal(3, 4), normal(3, 4, seed=1)),
        "axes": Case(lambda x, w: ((x * w).transpose(0, 2, 1) * normal(2, 4, 3, seed=2)).sum(),
                     normal(2, 3, 4), normal(3, 4, seed=1)),
    },
    "getitem": {
        "slices": Case(lambda x, w: ((x * w)[1:, :3] * normal(2, 3, seed=2)).sum(), normal(3, 4), normal(3, 4, seed=1)),
        "fancy-repeats": Case(lambda x, w: ((x * w)[np.array([0, 2, 0]), np.array([1, 3, 1])]
                                            * normal(3, seed=2)).sum(),
                              normal(3, 4), normal(3, 4, seed=1)),
    },
    "expand_dims": {
        "negative-axis": Case(lambda x, w: ((x * w).expand_dims(-1) * normal(3, 4, 2, seed=2)).sum(),
                              normal(3, 4), normal(3, 4, seed=1)),
        "front": Case(lambda x, w: ((x * w).expand_dims(0) * normal(2, 3, 4, seed=2)).sum(),
                      normal(3, 4), normal(3, 4, seed=1)),
    },
    "concat": {
        "traced": Case(lambda x, w: (Tensor.concat([x * w, x], axis=0) * normal(6, 4, seed=2)).sum(),
                       normal(3, 4), normal(3, 4, seed=1)),
        "with-constant": Case(lambda x, w: (Tensor.concat([x * w, Tensor(normal(3, 2, seed=3))], axis=-1)
                                            * normal(3, 6, seed=2)).sum(),
                              normal(3, 4), normal(3, 4, seed=1)),
    },
    "conv2d": {
        "bias-padding": Case(lambda x, w: (F.conv2d(x, w, Tensor(normal(3, seed=3)), padding=1)
                                           * normal(1, 3, 4, 4, seed=2)).sum(),
                             normal(1, 2, 4, 4), normal(3, 2, 3, 3, seed=1)),
        "stride-two-1x1": Case(lambda x, w: (F.conv2d(x, w, stride=2) * normal(2, 3, 2, 2, seed=2)).sum(),
                               normal(2, 2, 4, 4), normal(3, 2, 1, 1, seed=1)),
    },
    "bn_update": {
        "features": Case(_batch_norm((6, 3)), normal(6, 3), normal(3, seed=1), buffers=3),
        "images": Case(_batch_norm((2, 3, 2, 2)), normal(2, 3, 2, 2), normal(3, 1, 1, seed=1), buffers=3),
    },
}


def _cases(keep):
    return [pytest.param(kind, CASES[kind][name], id=f"{kind}-{name}")
            for kind in CASES for name in CASES[kind] if keep(OPS[kind])]


def _buffers(channels, k):
    """Distinct running statistics per client, ``(k, channels)`` each."""
    return {"running_mean": normal(k, channels, seed=4),
            "running_var": np.abs(normal(k, channels, seed=5)) + 0.5}


def _record(case: Case):
    """Record ``case`` on client 0's arrays; returns the trace."""
    trace = Trace()
    leaves = [trace.add_input("x", case.x), trace.add_param("w", case.w)]
    if case.buffers is not None:
        template = {name: value[0].copy() for name, value in _buffers(case.buffers, 1).items()}
        trace.register_buffers(template.items())
        leaves += [template["running_mean"], template["running_var"]]
    trace.set_output(case.fn(*leaves))
    trace.seal()
    return trace


def assert_buffers_match_per_client(case: Case, k: int = K) -> None:
    """Replay over ``k`` clients with distinct buffers; the loss, the
    parameter gradients and the staged buffer rows equal each client's
    eager step, bitwise."""
    xs = np.stack([case.x + normal(*case.x.shape, seed=10 + i) for i in range(k)])
    ws = np.stack([case.w + normal(*case.w.shape, seed=20 + i) for i in range(k)])
    buffers = _buffers(case.buffers, k)
    trace = _record(case)
    weight = Tensor(ws.copy(), requires_grad=True)
    loss, staged = BatchedReplay(trace, k).run({"x": xs}, {"w": weight}, buffers)
    loss.backward()
    assert list(staged) == ["running_mean", "running_var"]
    for client in range(k):
        mean, var = (buffers[name][client].copy() for name in ("running_mean", "running_var"))
        eager_w = Tensor(ws[client].copy(), requires_grad=True)
        eager = case.fn(Tensor(xs[client]), eager_w, mean, var)
        eager.backward()
        np.testing.assert_array_equal(loss.data[client], eager.data)
        np.testing.assert_array_equal(weight.grad[client], eager_w.grad)
        np.testing.assert_array_equal(staged["running_mean"][client], mean)
        np.testing.assert_array_equal(staged["running_var"][client], var)


def test_every_table_entry_has_cases():
    assert set(CASES) == set(OPS)
    assert all(CASES[kind] for kind in CASES)


@pytest.mark.parametrize("kind,case", _cases(lambda op: op.vjp is not None))
def test_vjp_matches_finite_differences(kind, case):
    x = Tensor(case.x.copy(), requires_grad=True)
    w = Tensor(case.w.copy(), requires_grad=True)
    assert_gradients_close(lambda: case.fn(x, w), [x, w], atol=1e-4)


@pytest.mark.parametrize("kind,case", _cases(lambda op: op.replay is not None))
def test_replay_matches_eager_clients(kind, case):
    assert kind in {op.kind for op in _record(case).ops}
    if case.buffers is not None:
        assert_buffers_match_per_client(case)
    else:
        assert_matches_per_client(case.fn, case.x, params={"w": case.w}, k=K)


@pytest.mark.parametrize("kind,case", _cases(lambda op: op.replay is None))
def test_recording_without_a_rule_names_the_kind(kind, case):
    with pytest.raises(UntraceableError, match=re.escape(repr(kind))):
        _record(case)
