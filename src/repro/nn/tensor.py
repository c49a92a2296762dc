"""A reverse-mode automatic differentiation engine over numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
reference implementation relies on PyTorch; since PyTorch is unavailable in
this environment, we reproduce the subset of its semantics that the Calibre
algorithms require:

* a :class:`Tensor` wrapping a numpy array, carrying an optional gradient;
* dynamic-graph construction — every differentiable operation records its
  parents and a backward closure;
* :meth:`Tensor.backward` performing reverse-mode differentiation via a
  topological sort of the recorded graph, then releasing that graph;
* a :func:`no_grad` context manager disabling graph construction (used for
  evaluation, EMA target networks, and FL parameter exchange).

Gradients broadcast exactly like numpy: the helper :func:`unbroadcast`
reduces an upstream gradient back to a parent's shape.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "GraphReleasedError",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
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


def set_default_dtype(dtype) -> None:
    """Set the dtype used when constructing tensors from python data.

    Float64 (the default) makes finite-difference gradient checks tight;
    switch to float32 for faster large trainings.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    """Return the current default floating dtype."""
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


def _released_backward() -> None:
    raise GraphReleasedError(
        "backward() reached a tensor whose graph was released by an earlier "
        "backward(); recompute the forward pass to differentiate again")


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summation happens over (a) leading axes that were prepended by
    broadcasting and (b) axes of size one that were stretched.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "__weakref__")

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
        elif dtype is None and array.dtype == np.float32 and _DEFAULT_DTYPE is np.float64:
            # Preserve float32 inputs; only python data takes the default dtype.
            pass
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[], None]] = None
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

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        out = self._make_output(self.data.astype(dtype), (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad.astype(self.data.dtype))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_output(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be provided for non-scalar
        outputs only when a custom seed is desired; ones are broadcast).

        The graph is released on return: every non-leaf node walked here
        drops its parents and backward closure.  Each closure holds its own
        output, so without the release every graph is a reference cycle
        whose arrays live until the cyclic GC runs.  A later backward that
        reaches a released node raises :exc:`GraphReleasedError`.
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
            if node._backward is not None and node.grad is not None:
                node._backward()
        for node in topo:
            if node._backward is not None:
                node._parents = ()
                node._backward = _released_backward

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out = self._make_output(self.data + other.data, (self, other))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(out.grad, other.shape))

            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_output(-self.data, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(-out.grad)

            out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, dtype=self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out = self._make_output(self.data * other.data, (self, other))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(out.grad * self.data, other.shape))

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out = self._make_output(self.data / other.data, (self, other))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(
                        unbroadcast(-out.grad * self.data / (other.data**2), other.shape)
                    )

            out._backward = _backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = self._make_output(self.data**exponent, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            out._backward = _backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out = self._make_output(self.data @ other.data, (self, other))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                if self.requires_grad:
                    if other.data.ndim == 1:
                        self._accumulate(np.outer(grad, other.data) if grad.ndim else grad * other.data)
                    else:
                        contribution = grad @ np.swapaxes(other.data, -1, -2)
                        self._accumulate(unbroadcast(contribution, self.shape))
                if other.requires_grad:
                    if self.data.ndim == 1:
                        other._accumulate(np.outer(self.data, grad))
                    else:
                        contribution = np.swapaxes(self.data, -1, -2) @ grad
                        other._accumulate(unbroadcast(contribution, other.shape))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make_output(value, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * value)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_output(np.log(self.data), (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad / self.data)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = self._make_output(value, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * 0.5 / value)

            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make_output(value, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * (1.0 - value**2))

            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_output(value, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * value * (1.0 - value))

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_output(self.data * mask, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            out._backward = _backward
        return out

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out = self._make_output(self.data * scale, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * scale)

            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = self._make_output(np.abs(self.data), (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * sign)

            out._backward = _backward
        return out

    def clip(self, low: Optional[float] = None, high: Optional[float] = None) -> "Tensor":
        value = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data >= low
        if high is not None:
            inside &= self.data <= high
        out = self._make_output(value, (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad * inside)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_output(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _backward():
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.data.ndim for a in axes)
                    grad = np.expand_dims(grad, tuple(sorted(axes)))
                self._accumulate(np.broadcast_to(grad, self.shape).copy())

            out._backward = _backward
        return out

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
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_output(value, (self,))
        if out.requires_grad:
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / mask.sum(axis=axis, keepdims=True)

            def _backward():
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.data.ndim for a in axes)
                    grad = np.expand_dims(grad, tuple(sorted(axes)))
                self._accumulate(mask * grad)

            out._backward = _backward
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_output(self.data.reshape(shape), (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(self.shape))

            out._backward = _backward
        return out

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 0:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_output(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = np.argsort(axes)

            def _backward():
                if self.requires_grad:
                    self._accumulate(out.grad.transpose(inverse))

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_output(self.data[index], (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)

            out._backward = _backward
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        out = self._make_output(np.expand_dims(self.data, axis), (self,))
        if out.requires_grad:

            def _backward():
                if self.requires_grad:
                    self._accumulate(np.squeeze(out.grad, axis=axis))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Static constructors / combinators
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        if any(getattr(t, "_trace", None) is not None for t in tensors):
            # Static dispatch cannot route through a subclass: hand traced
            # inputs to the recording implementation explicitly.
            from .trace import traced_concat

            return traced_concat(tensors, axis=axis)
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = tuple(tensors)
            sizes = [t.shape[axis] for t in tensors]
            offsets = np.cumsum([0] + sizes)

            def _backward():
                for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                    if tensor.requires_grad:
                        slicer = [slice(None)] * out.grad.ndim
                        slicer[axis] = slice(start, stop)
                        tensor._accumulate(out.grad[tuple(slicer)])

            out._backward = _backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        expanded = [as_tensor(t).expand_dims(axis) for t in tensors]
        return Tensor.concat(expanded, axis=axis)

    @staticmethod
    def zeros(shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(shape, rng: Optional[np.random.Generator] = None, dtype=None,
              requires_grad: bool = False) -> "Tensor":
        # repro: allow[DET001] -- unseeded convenience fallback; federated paths always pass rng
        rng = rng if rng is not None else np.random.default_rng()
        data = rng.standard_normal(shape).astype(dtype or _DEFAULT_DTYPE)
        return Tensor(data, requires_grad=requires_grad)
