"""A reverse-mode automatic differentiation engine over numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
reference implementation relies on PyTorch; since PyTorch is unavailable in
this environment, we reproduce the subset of its semantics that the Calibre
algorithms require:

* a :class:`Tensor` wrapping a numpy array, carrying an optional gradient;
* one path for every primitive: :func:`apply` runs an entry of the op table
  (:data:`OPS`, filled by :mod:`repro.nn.ops`) and, when gradients are on,
  the output node keeps its parents, its entry and the context its VJP
  (vector-Jacobian product) reads;
* :meth:`Tensor.backward` performing reverse-mode differentiation via a
  topological sort of the recorded graph, then releasing that graph;
* a :func:`no_grad` context manager disabling graph construction (used for
  evaluation, EMA target networks, and FL parameter exchange).

When an operand is being traced (:mod:`repro.nn.trace`), :func:`apply`
hands the application to the operand's trace instead of building a node,
so recording takes the same path as eager execution.

Gradients broadcast exactly like numpy: the helper :func:`unbroadcast`
reduces an upstream gradient back to a parent's shape.
"""

from __future__ import annotations

import contextlib
import threading
from operator import attrgetter
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "GraphReleasedError",
    "OPS",
    "apply",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "as_tensor",
    "unbroadcast",
]

# Grad mode is thread-local: the thread execution backends run independent
# clients (and, via repro.runs, whole experiments) concurrently, and one
# thread evaluating under no_grad() must not strip another thread's
# training graph mid-backward.  Each new thread starts with grads enabled.
_GRAD_STATE = threading.local()
_DEFAULT_DTYPE = np.float64

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# The operands' arrays and grad flags, gathered without a Python-level
# loop per node.
_DATA = attrgetter("data")
_REQUIRES_GRAD = attrgetter("requires_grad")

OPS: Dict[str, "object"] = {}
"""The op table: kind -> entry.  :mod:`repro.nn.ops` registers every entry
when the package is imported; :func:`apply` and batched replay look kinds
up here."""


def get_default_dtype():
    """Return the floating dtype used for tensors built from python data."""
    return _DEFAULT_DTYPE


def is_grad_enabled() -> bool:
    """Return True when operations record the autograd graph (per thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd graph construction.

    The flag is per-thread (see ``_GRAD_STATE``), matching PyTorch's
    semantics: disabling grads on an evaluation thread leaves concurrently
    training threads untouched.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


class GraphReleasedError(RuntimeError):
    """A backward pass reached a node whose graph an earlier backward freed."""


class _Released:
    """The entry of a node whose graph an earlier backward released."""

    def vjp(self, ctx, grad, inputs, needs):
        raise GraphReleasedError(
            "backward() reached a tensor whose graph was released by an earlier "
            "backward(); recompute the forward pass to differentiate again")


_RELEASED = _Released()
_RELEASED_ARGS = (None, (), ())


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summation happens over (a) leading axes that were prepended by
    broadcasting and (b) axes of size one that were stretched, in one
    reduction: batched replay turns prepended axes into stretched ones (a
    leading-ones reshape), and a single reduction sums each client's
    slice in the same order either way.
    """
    if grad.shape == shape:
        return grad
    padded = (1,) * (grad.ndim - len(shape)) + tuple(shape)
    axes = tuple(i for i, dim in enumerate(padded) if dim == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


def as_tensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


def apply(kind: str, *operands, **params):
    """Apply the op table's ``kind`` entry to tensor ``operands``.

    The one path every primitive takes.  A traced operand routes the
    application to its trace, which records it and returns a traced
    output.  Otherwise the entry's forward runs over the operands' arrays;
    with gradients enabled and an operand requiring them, the output node
    keeps the operands as parents, the entry, and its VJP's arguments
    (context, input arrays, which inputs need a gradient) for
    :meth:`Tensor.backward`.  The side-effect entry returns ``None``.
    """
    op = OPS[kind]
    for operand in operands:
        if operand._trace is not None:
            return operand._trace.record(op, operands, params)
    inputs = tuple(map(_DATA, operands))
    data, ctx = op.forward(*inputs, **params)
    if data is None:
        return None
    out = Tensor(data, dtype=data.dtype)
    if is_grad_enabled():
        needs = tuple(map(_REQUIRES_GRAD, operands))
        if True in needs and op.vjp is not None:
            out.requires_grad = True
            out._op = op
            out._ctx = (ctx, inputs, needs)
            out._parents = operands
    return out


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_op", "_ctx", "_parents",
                 "name", "__weakref__")

    #: The trace recording this tensor; set only on trace tensors.
    _trace = None

    #: numpy defers every binary operator to the Tensor's reflected method
    #: (``ndarray @ Tensor`` calls ``Tensor.__rmatmul__``) instead of
    #: broadcasting the Tensor into an object array.
    __array_ufunc__ = None

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data, dtype=dtype if dtype is not None else None)
        if array.dtype.kind not in "fiub":
            raise TypeError(f"unsupported tensor dtype {array.dtype}")
        if array.dtype.kind in "iub" and dtype is None:
            array = array.astype(_DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._op = None
        self._ctx = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_note})"

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return apply("detach", self)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be provided for non-scalar
        outputs only when a custom seed is desired; ones are broadcast).

        Nodes run their entry's VJP in reverse topological order, and each
        node accumulates into its parents in parent order.  The graph is
        released on return: every non-leaf node walked here drops its
        parents and VJP context, so the intermediate arrays die when
        backward returns even while the caller still holds the output.  A
        later backward that reaches a released node raises
        :exc:`GraphReleasedError`.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(grad.data if isinstance(grad, Tensor) else grad, dtype=self.data.dtype)
            seed = np.broadcast_to(seed, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(seed)
        for node in reversed(topo):
            if node._op is not None and node.grad is not None:
                ctx, inputs, needs = node._ctx
                grads = node._op.vjp(ctx, node.grad, inputs, needs)
                for parent, parent_grad in zip(node._parents, grads):
                    if parent_grad is not None:
                        parent._accumulate(parent_grad)
        for node in topo:
            if node._op is not None:
                node._parents = ()
                node._op = _RELEASED
                node._ctx = _RELEASED_ARGS

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply("add", self, as_tensor(other, dtype=self.data.dtype))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply("neg", self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, dtype=self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply("mul", self, as_tensor(other, dtype=self.data.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply("truediv", self, as_tensor(other, dtype=self.data.dtype))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) / self

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return apply("matmul", self, as_tensor(other, dtype=self.data.dtype))

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) @ self

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply("exp", self)

    def log(self) -> "Tensor":
        return apply("log", self)

    def sqrt(self) -> "Tensor":
        return apply("sqrt", self)

    def relu(self) -> "Tensor":
        return apply("relu", self)

    def clip(self, low: Optional[float] = None, high: Optional[float] = None) -> "Tensor":
        return apply("clip", self, low=low, high=high)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("max", self, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", self, shape=shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 0:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return apply("transpose", self, axes=axes)

    def __getitem__(self, index) -> "Tensor":
        if getattr(index, "_trace", None) is not None:
            # A per-client row index (Trace.add_index) is an operand, so
            # the application records even when this tensor is a constant.
            return apply("getitem", self, index)
        return apply("getitem", self, index=index)

    def expand_dims(self, axis: int) -> "Tensor":
        return apply("expand_dims", self, axis=axis)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return apply("concat", *[as_tensor(t) for t in tensors], axis=axis)
